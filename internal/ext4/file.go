package ext4

import (
	"fmt"
	"io"
	"runtime"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// file is an open handle. Handles are invalidated by Crash (their
// generation no longer matches the filesystem's).
type file struct {
	fs       *FS
	in       *inode
	gen      int64
	writable bool
	closed   bool
}

var _ vfs.File = (*file)(nil)

func (f *file) check() error {
	if f.closed {
		return vfs.ErrClosed
	}
	if f.gen != f.fs.gen {
		return fmt.Errorf("%w: handle severed by crash", vfs.ErrClosed)
	}
	return nil
}

// Append implements vfs.File: a buffered write into the page cache.
// The data becomes durable only when the inode's transaction commits
// (ordered mode) or on Sync. Crossing the dirty threshold throttles
// the writer behind a forced commit, as the kernel's dirty_ratio does.
func (f *file) Append(tl *vclock.Timeline, p []byte) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if !f.writable {
		return fmt.Errorf("ext4: %w", errReadOnly)
	}
	fs.enter(tl)
	fs.charge(tl, int64(len(p)))
	appendAt := f.in.data.Len()
	f.in.data.Append(&fs.pc, p)
	// Appended bytes enter the page cache; on a partially resident
	// post-crash file (a reopened WAL, say) the written pages are
	// resident even though older ones may not be.
	f.in.markPaged(appendAt, int64(len(p)))
	fs.dirtyBytes += int64(len(p))
	fs.markDirty(f.in, tl.Now())
	if fs.dirtyBytes > fs.cfg.DirtyThreshold {
		// Writer throttling (balance_dirty_pages): the writer waits
		// for the flusher to drain the backlog.
		fs.flushAllLocked()
		fs.m.throttleStallNs.AddDuration(tl.WaitUntil(fs.flusher.Now()))
	}
	return nil
}

var errReadOnly = fmt.Errorf("file is read-only")

// ReadAt implements vfs.File. Page-cache-resident data costs a memcpy;
// after a crash the first reads of a file are charged to the device.
//
// The resident-case memcpy runs outside fs.mu: file data is append-
// only while any handle is open (truncation, trimming and chunk
// recycling all require the last handle closed, and a crash severs
// handles under fs.mu before truncating), so bytes below the size
// observed under the lock are immutable and the copy cannot race with
// a concurrent Append, which only writes beyond that size.
func (f *file) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	if err := f.check(); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	fs.enter(tl)
	size := f.in.data.Len()
	if off < 0 || off > size {
		fs.mu.Unlock()
		return 0, fmt.Errorf("ext4: read offset %d out of range [0,%d]", off, size)
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	if f.in.rangeResident(off, int64(n)) {
		// Snapshot the chunk table under the lock. Full chunks are
		// immutable; the tail chunk's slice header is the one element
		// a concurrent Append rewrites, so its captured value stands
		// in for it during the unlocked copy.
		nCh := int((size + ExtentBytes - 1) / ExtentBytes)
		chunks := f.in.data.chunks[:nCh]
		var tail []byte
		if nCh > 0 {
			tail = chunks[nCh-1]
		}
		fs.charge(tl, int64(n))
		fs.mu.Unlock()
		if n > 0 {
			readAtChunks(chunks, tail, p[:n], off)
		}
		// The handle keeps the filesystem, and with it the slabs the
		// copy reads, from passing to the next filesystem (slab.go).
		runtime.KeepAlive(f)
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	// Cold (or partially cold) range: fault the missing pages in from
	// the device as one request, then serve the copy from the cache.
	n = f.in.data.ReadAt(p, off)
	miss := f.in.missingBytes(off, int64(n))
	done := fs.dev.Read(tl.Now(), miss)
	f.in.markPaged(off, int64(n))
	tl.WaitUntil(done)
	fs.mu.Unlock()
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadView implements vfs.File: a zero-copy read of resident,
// single-chunk ranges. The returned slice aliases the page cache; the
// same append-only invariant that lets ReadAt copy outside fs.mu (see
// above) makes the alias safe until the last handle closes — chunk
// recycling and trimming require handles==0. Non-resident data, a
// range that crosses an extent chunk or one that runs past the end of
// the file reports ok=false and the caller falls back to ReadAt.
// Virtual cost on success equals a resident ReadAt of n bytes.
func (f *file) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	if n <= 0 {
		return nil, false, nil
	}
	fs := f.fs
	fs.mu.Lock()
	if err := f.check(); err != nil {
		fs.mu.Unlock()
		return nil, false, err
	}
	fs.enter(tl)
	size := f.in.data.Len()
	if off < 0 || off+int64(n) > size || !f.in.rangeResident(off, int64(n)) {
		// Out of range is ReadAt's to report (a short read, which the
		// table reader classifies as a truncated block).
		fs.mu.Unlock()
		return nil, false, nil
	}
	ci := off / ExtentBytes
	co := int(off % ExtentBytes)
	chunk := f.in.data.chunks[ci]
	if co+n > len(chunk) {
		// The range spans two chunks (or runs into the mutable tail
		// beyond the captured header); copy path handles it.
		fs.mu.Unlock()
		return nil, false, nil
	}
	fs.charge(tl, int64(n))
	fs.mu.Unlock()
	return chunk[co : co+n : co+n], true, nil
}

// Peek implements vfs.File: a view like ReadView's, without its
// charge — no clock advance, no page fault and no change to residency,
// so a cold range stays cold for the charged read that follows — from
// off to the end of off's extent chunk.
func (f *file) Peek(off int64) ([]byte, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := f.check(); err != nil {
		return nil, err
	}
	if size := f.in.data.Len(); off < 0 || off >= size {
		return nil, fmt.Errorf("ext4: peek at %d out of range [0,%d): %w", off, size, io.EOF)
	}
	// The tail chunk's header is the one element a concurrent Append
	// rewrites; its value captured here stands for the bytes below the
	// size observed with it, which are immutable (see ReadAt).
	c := f.in.data.chunks[off/ExtentBytes]
	return c[off%ExtentBytes : len(c) : len(c)], nil
}

// Sync implements vfs.File: fsync. It writes back this file's dirty
// data and journals its inode behind a flush barrier, stalling the
// caller until the barrier completes. With delayed allocation (ext4's
// default), other files' dirty pages are not flushed by this fsync —
// they wait for the flusher and the periodic commit after it — so
// the caller pays for its own bytes plus the barrier, which is why the
// paper's sync *count* and per-file synced volume are the governing
// costs.
func (f *file) Sync(tl *vclock.Timeline) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	fs.enter(tl)
	fs.m.syncs.Inc()
	start := tl.Now()
	done := fs.fastCommitLocked(start, f.in)
	stall := tl.WaitUntil(done)
	fs.m.syncStallNs.AddDuration(stall)
	if fs.trace != nil && stall > 0 {
		fs.trace.Span(obs.TidForeground, "stall", "stall.fsync", start, tl.Now(), obs.KV{K: "cause", V: "fsync"}, obs.KV{K: "ino", V: f.in.ino})
	}
	return nil
}

// Close implements vfs.File. POSIX close does not sync.
func (f *file) Close(tl *vclock.Timeline) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return vfs.ErrClosed
	}
	f.closed = true
	f.in.handles--
	if f.in.handles > 0 {
		return nil
	}
	// No handle is left to hold a view of the file's chunks.
	if f.fs.inodes[f.in.ino] != f.in {
		// Its removal has committed (or a crash dropped it): its page
		// cache is unreachable — recycle.
		f.in.data.Release(&f.fs.pc)
	} else {
		// Give back the empty part of the last extent.
		f.in.data.Trim(&f.fs.pc)
	}
	return nil
}

// Size implements vfs.File.
func (f *file) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.in.data.Len()
}

// Ino implements vfs.File.
func (f *file) Ino() int64 { return f.in.ino }
