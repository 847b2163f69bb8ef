// Package vfs defines the filesystem interface the LSM-tree engine
// writes through. The production implementation is the ext4 journaling
// simulation (internal/ext4), which FaultFS, CrashFS and PrefixFS wrap.
// Hard links, NobLSM's check_commit/is_committed syscalls, the
// page-cache view and the peek are part of FS and File, not optional
// extensions: every wrapper and test fake implements the whole surface.
//
// Every operation takes the calling thread's virtual timeline so the
// filesystem can charge page-cache, device, and journal costs to the
// right clock.
package vfs

import (
	"errors"

	"noblsm/internal/vclock"
)

// ErrNotExist is returned when a named file is absent.
var ErrNotExist = errors.New("vfs: file does not exist")

// ErrExist is returned when creating a file that already exists and
// the implementation forbids truncation.
var ErrExist = errors.New("vfs: file already exists")

// ErrClosed is returned for operations on a closed file handle.
var ErrClosed = errors.New("vfs: file is closed")

// FS is a flat-namespace filesystem. Implementations must be safe for
// concurrent use.
type FS interface {
	// Create makes a new writable file, truncating any existing one.
	Create(tl *vclock.Timeline, name string) (File, error)
	// Open returns a read-only handle on an existing file.
	Open(tl *vclock.Timeline, name string) (File, error)
	// ReadFile reads an entire file.
	ReadFile(tl *vclock.Timeline, name string) ([]byte, error)
	// WriteFile creates name with the given contents (no sync).
	WriteFile(tl *vclock.Timeline, name string, data []byte) error
	// Remove unlinks a file.
	Remove(tl *vclock.Timeline, name string) error
	// Rename atomically moves old to new, replacing new.
	Rename(tl *vclock.Timeline, oldName, newName string) error
	// Exists reports whether name is present.
	Exists(tl *vclock.Timeline, name string) bool
	// List returns the names of all files, in unspecified order.
	List(tl *vclock.Timeline) []string
	// Size reports the current length of name.
	Size(tl *vclock.Timeline, name string) (int64, error)
	// SyncDir persists the directory metadata (namespace ops), as
	// LevelDB does after installing a new CURRENT file.
	SyncDir(tl *vclock.Timeline) error

	Linker
	Syscalls
}

// File is an append-only, random-read file handle.
type File interface {
	// Append writes p at the end of the file.
	Append(tl *vclock.Timeline, p []byte) error
	// ReadAt fills p from offset off, returning the bytes read. It
	// returns io.EOF if fewer than len(p) bytes are available.
	ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error)
	// Sync makes the file's current contents and metadata durable
	// (fsync): it blocks the caller's timeline until the device
	// barrier completes.
	Sync(tl *vclock.Timeline) error
	// Close releases the handle. Closing never syncs.
	Close(tl *vclock.Timeline) error
	// Size reports the current file length.
	Size() int64
	// Ino reports the file's inode number, the handle NobLSM passes
	// to the check_commit/is_committed syscalls.
	Ino() int64

	ViewReader
	Peeker
}

// Linker is the hard-link part of FS. Link adds newName as a second
// directory entry for oldName's inode — no data copy, no writeback;
// both names share contents from then on (the engine only ever links
// immutable files, so aliasing is safe).
type Linker interface {
	Link(tl *vclock.Timeline, oldName, newName string) error
}

// Syscalls is the part of FS that NobLSM adds to the kernel: the
// check_commit/is_committed syscalls over ext4's journal, by inode.
type Syscalls interface {
	// CheckCommit registers inodes in the Pending Table.
	CheckCommit(tl *vclock.Timeline, inos ...int64)
	// IsCommitted reports whether an inode reached the Committed
	// Table.
	IsCommitted(tl *vclock.Timeline, ino int64) bool
	// CommittedSize reports the journal-committed (durable) prefix of
	// an inode — the companion query for append-only files such as
	// the MANIFEST, whose edits gate write-ahead-log deletion.
	CommittedSize(tl *vclock.Timeline, ino int64) int64
}

// ViewReader is the zero-copy read of File. ReadView returns a
// read-only view of n bytes at off when the implementation can produce
// one without copying — typically when the range is page-cache
// resident and physically contiguous. ok=false
// means the caller must fall back to ReadAt; it is not an error. The
// same virtual-time cost as a resident ReadAt is charged on success.
//
// The view aliases the file's cached contents: it stays valid until
// this handle is closed (implementations guarantee the viewed range is
// immutable while any handle is open) and must never be written to.
type ViewReader interface {
	ReadView(tl *vclock.Timeline, n int, off int64) (p []byte, ok bool, err error)
}

// Peeker is the part of File that looks at immutable bytes off the
// clock: Peek returns a read-only view of the file from off to the
// end of the piece of memory that holds off (at least one byte, for an
// off inside the file), without charging virtual time, touching
// page-cache residency or any other state a charged read changes. A
// compaction's merge stage peeks its input blocks so that their decode
// can run beside the commit stage, which makes each block's charged
// read, in order, and checks it returned the very bytes peeked; one
// peek serves every block of a piece.
//
// Only bytes no Append can change may be peeked, and a view obeys
// ViewReader's lifetime rule. An error means the bytes cannot be
// peeked there, and a scan takes the charged read's bytes instead. A wrapper
// that injects faults forwards Peek untouched: faults belong to the
// charged call.
type Peeker interface {
	Peek(off int64) ([]byte, error)
}
