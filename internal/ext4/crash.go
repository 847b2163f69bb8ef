package ext4

import "noblsm/internal/vclock"

// Crash simulates a sudden power cut at virtual time at (the paper
// uses `halt -f -p -n`, which powers off without flushing dirty
// blocks) followed by remounting the filesystem with journal replay:
//
//   - the page cache and the running (uncommitted) transaction are
//     lost: uncommitted creations vanish, uncommitted removals and
//     renames roll back, and every file's contents revert to the
//     length recorded by the last committed transaction holding its
//     inode;
//   - the kernel-space Pending and Committed tables are volatile and
//     come back empty;
//   - all open handles are severed.
//
// Device counters and the device queue position are preserved so an
// experiment can account totals across the cut.
func (fs *FS) Crash(at vclock.Time) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// The flusher and kjournald run on wall time, not on application
	// activity: everything scheduled before the power cut happened.
	fs.flushLocked(at)
	fs.catchUp(at)

	names := make(map[string]*inode, len(fs.durableNames))
	inodes := make(map[int64]*inode, len(fs.durableNames))
	for name, ino := range fs.durableNames {
		in := fs.inodes[ino]
		if in == nil || in.durableSize < 0 {
			// A durable name must reference a committed inode by
			// construction; guard anyway.
			continue
		}
		if _, seen := inodes[ino]; !seen {
			in.data.Truncate(&fs.pc, in.durableSize)
			in.persisted = in.durableSize
			in.resident = false
			in.pagedIn = nil
			in.pagesIn = 0
			in.nlink = 0
			in.inRunning = false
			in.queued = false
			inodes[ino] = in
		}
		// nlink is recounted from the durable namespace: an inode with
		// several committed hard links resurrects with all of them.
		in.nlink++
		names[name] = in
	}
	// Files the cut erased go back to the free list now, or at their
	// last handle's Close (which finds them gone from fs.inodes).
	for ino, in := range fs.inodes {
		if inodes[ino] == nil && in.handles == 0 {
			in.data.Release(&fs.pc)
		}
	}
	fs.names = names
	fs.inodes = inodes
	fs.running = newTxn()
	fs.dirtyBytes = 0
	fs.flushQueue = nil
	fs.pending = make(map[int64]bool)
	fs.committed = make(map[int64]bool)
	fs.gen++
	if at > fs.lastCommit {
		fs.lastCommit = at
	}
	fs.wb.WaitUntil(at)
	fs.flusher.WaitUntil(at)
}

// DurableFileCount reports the number of files that would survive a
// crash right now (for tests).
func (fs *FS) DurableFileCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.durableNames)
}

// DurableSize reports the crash-surviving length of name, or -1 if the
// file would not exist after a crash (for tests).
func (fs *FS) DurableSize(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.durableNames[name]
	if !ok {
		return -1
	}
	in := fs.inodes[ino]
	if in == nil {
		return -1
	}
	return in.durableSize
}

// DebugState reports internal progress markers (tests only).
func (fs *FS) DebugState(name string) (flusherNow, wbNow vclock.Time, queueLen int, persisted, size, durable int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	flusherNow, wbNow, queueLen = fs.flusher.Now(), fs.wb.Now(), len(fs.flushQueue)
	if in, ok := fs.names[name]; ok {
		persisted, size, durable = in.persisted, in.data.Len(), in.durableSize
	}
	return
}
