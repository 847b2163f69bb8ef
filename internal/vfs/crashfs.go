// crashfs.go implements CrashFS, a deterministic crash-point recorder
// layered over a journaling filesystem. The inner filesystem announces
// every journal-commit boundary (CommitNotifier); CrashFS mirrors all
// appended bytes and, at each boundary, records the exact durable
// image — which names exist and how many bytes of each survive — under
// ext4 data=ordered semantics. After the workload, every recorded
// boundary can be materialized as a standalone post-crash directory
// and re-opened, which turns "random power cuts" into an exhaustive
// enumeration of every state a real crash could leave behind.
package vfs

import (
	"fmt"
	"sync"

	"noblsm/internal/vclock"
)

// Commit kinds, mirroring the journaling filesystem's boundary types.
const (
	// CommitAsync is a periodic journal commit (the data=ordered
	// cadence): all writeback-aged data plus all namespace operations
	// become durable together.
	CommitAsync = "commit"
	// CommitSyncDir is a synchronous directory commit (SyncDir).
	CommitSyncDir = "dirsync"
	// CommitFsync is a single-file fast commit (fsync): the target
	// file's bytes and its own namespace operations become durable.
	CommitFsync = "fsync"
)

// DurableFile is one surviving file of a crash point: its name in the
// durable namespace and the length of the prefix that survives.
type DurableFile struct {
	Name string
	Ino  int64
	Size int64
}

// CommitRecord describes the durable image at one journal-commit
// boundary. A crash strictly between commit N and commit N+1 leaves
// exactly commit N's image on disk, so the sequence of CommitRecords
// enumerates every distinct post-crash state of the run.
type CommitRecord struct {
	// Seq numbers boundaries in execution order (monotone; the
	// durable image only grows-or-changes forward in this order).
	Seq int
	// Kind is one of CommitAsync, CommitSyncDir, CommitFsync.
	Kind string
	// At is the boundary's virtual instant on the committing
	// timeline. Timelines interleave, so At is not guaranteed
	// monotone in Seq; Seq is the authoritative order.
	At vclock.Time
	// Files is the full durable namespace after this commit.
	Files []DurableFile
}

// CommitNotifier is the optional inner-filesystem extension CrashFS
// subscribes to. The hook is invoked at every journal-commit boundary
// with the filesystem's internal lock held: it must be fast and must
// not call back into the filesystem.
type CommitNotifier interface {
	SetCommitHook(func(CommitRecord))
}

// CrashFS wraps a journaling FS, mirrors every appended byte, and
// records the durable image at every commit boundary. It is a test
// and tooling facility: the mirror doubles the memory footprint of
// written data and is never used on benchmark paths.
type CrashFS struct {
	inner    FS
	Syscalls // inner's

	mu     sync.Mutex
	shadow map[int64][]byte // ino -> every byte ever appended, in order
	points []CommitRecord
}

// NewCrashFS wraps inner and subscribes to its commit boundaries. The
// returned FS must be the mount the workload runs on: only appends
// made through it are mirrored, so a file written directly to inner
// cannot be materialized later.
func NewCrashFS(inner FS) *CrashFS {
	c := &CrashFS{inner: inner, Syscalls: inner, shadow: make(map[int64][]byte)}
	if n, ok := inner.(CommitNotifier); ok {
		n.SetCommitHook(c.onCommit)
	}
	return c
}

// onCommit runs inside the inner filesystem's lock; it only touches
// CrashFS state.
func (c *CrashFS) onCommit(rec CommitRecord) {
	c.mu.Lock()
	c.points = append(c.points, rec)
	c.mu.Unlock()
}

// Points returns a snapshot of every commit boundary recorded so far,
// in execution order.
func (c *CrashFS) Points() []CommitRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CommitRecord, len(c.points))
	copy(out, c.points)
	return out
}

// Materialize reconstructs the post-crash directory for one recorded
// boundary: each durable name maps to the prefix of its bytes that
// the journal had made durable. The contents are fresh copies, safe
// to write into a new filesystem.
//
// Limitation: the mirror sees bytes at Append time, so out-of-band
// mutation of the inner filesystem (ext4.CorruptAt) is not reflected.
func (c *CrashFS) Materialize(p CommitRecord) (map[string][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := make(map[string][]byte, len(p.Files))
	for _, f := range p.Files {
		buf := c.shadow[f.Ino]
		if int64(len(buf)) < f.Size {
			return nil, fmt.Errorf("vfs: crash point %d: %q ino %d durable to %d but only %d bytes mirrored",
				p.Seq, f.Name, f.Ino, f.Size, len(buf))
		}
		cp := make([]byte, f.Size)
		copy(cp, buf[:f.Size])
		img[f.Name] = cp
	}
	return img, nil
}

// noteAppend mirrors appended bytes before they reach the inner file,
// guaranteeing the shadow always holds at least as many bytes as any
// durable prefix a later commit boundary can report.
func (c *CrashFS) noteAppend(ino int64, p []byte) {
	c.mu.Lock()
	c.shadow[ino] = append(c.shadow[ino], p...)
	c.mu.Unlock()
}

func (c *CrashFS) Create(tl *vclock.Timeline, name string) (File, error) {
	f, err := c.inner.Create(tl, name)
	if err != nil {
		return nil, err
	}
	return &crashFile{inner: f, fs: c}, nil
}

func (c *CrashFS) Open(tl *vclock.Timeline, name string) (File, error) {
	f, err := c.inner.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return &crashFile{inner: f, fs: c}, nil
}

func (c *CrashFS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	return c.inner.ReadFile(tl, name)
}

// WriteFile routes through Create/Append/Close so the bytes are
// mirrored like any other append.
func (c *CrashFS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	f, err := c.Create(tl, name)
	if err != nil {
		return err
	}
	if err := f.Append(tl, data); err != nil {
		f.Close(tl)
		return err
	}
	return f.Close(tl)
}

func (c *CrashFS) Remove(tl *vclock.Timeline, name string) error {
	// The shadow is retained: earlier crash points may still
	// reference the removed file's inode.
	return c.inner.Remove(tl, name)
}

func (c *CrashFS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	return c.inner.Rename(tl, oldName, newName)
}

// Link forwards hard-link creation. No extra mirroring is needed: the
// shadow is keyed by inode, and commit boundaries list every durable
// name with its ino, so a linked name materializes from the same
// mirrored bytes as its source.
func (c *CrashFS) Link(tl *vclock.Timeline, oldName, newName string) error {
	return c.inner.Link(tl, oldName, newName)
}

func (c *CrashFS) Exists(tl *vclock.Timeline, name string) bool {
	return c.inner.Exists(tl, name)
}

func (c *CrashFS) List(tl *vclock.Timeline) []string { return c.inner.List(tl) }

func (c *CrashFS) Size(tl *vclock.Timeline, name string) (int64, error) {
	return c.inner.Size(tl, name)
}

func (c *CrashFS) SyncDir(tl *vclock.Timeline) error { return c.inner.SyncDir(tl) }

// crashFile mirrors appends into the CrashFS shadow before forwarding
// them. Reads forward directly, including the zero-copy ReadView path
// and the uncharged Peek.
type crashFile struct {
	inner File
	fs    *CrashFS
}

func (f *crashFile) Append(tl *vclock.Timeline, p []byte) error {
	f.fs.noteAppend(f.inner.Ino(), p)
	return f.inner.Append(tl, p)
}

func (f *crashFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	return f.inner.ReadAt(tl, p, off)
}

func (f *crashFile) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	return f.inner.ReadView(tl, n, off)
}

func (f *crashFile) Peek(off int64) ([]byte, error) { return f.inner.Peek(off) }

func (f *crashFile) Sync(tl *vclock.Timeline) error  { return f.inner.Sync(tl) }
func (f *crashFile) Close(tl *vclock.Timeline) error { return f.inner.Close(tl) }
func (f *crashFile) Size() int64                     { return f.inner.Size() }
func (f *crashFile) Ino() int64                      { return f.inner.Ino() }
