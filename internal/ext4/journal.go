package ext4

import (
	"sort"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// SetCommitHook implements vfs.CommitNotifier: hook is invoked at
// every journal-commit boundary that changes durable state, under
// fs.mu, with the full post-commit durable image. It must be fast and
// must not call back into the filesystem. A nil hook (the default)
// disables notification entirely.
func (fs *FS) SetCommitHook(hook func(vfs.CommitRecord)) {
	fs.mu.Lock()
	fs.commitHook = hook
	fs.mu.Unlock()
}

// noteCommitLocked fires the commit hook with the durable image as of
// the just-completed commit. Callers must hold fs.mu.
func (fs *FS) noteCommitLocked(kind string, at vclock.Time) {
	if fs.commitHook == nil {
		return
	}
	fs.commitSeq++
	rec := vfs.CommitRecord{Seq: fs.commitSeq, Kind: kind, At: at,
		Files: make([]vfs.DurableFile, 0, len(fs.durableNames))}
	for name, ino := range fs.durableNames {
		var size int64
		if in := fs.inodes[ino]; in != nil {
			size = in.durableSize
		}
		rec.Files = append(rec.Files, vfs.DurableFile{Name: name, Ino: ino, Size: size})
	}
	sort.Slice(rec.Files, func(i, j int) bool { return rec.Files[i].Name < rec.Files[j].Name })
	fs.commitHook(rec)
}

// catchUp runs every asynchronous journal commit scheduled at or
// before now. The simulation is lazy: instead of a real kjournald
// goroutine, commits execute when the next filesystem entry point
// observes that their wakeup time has passed; their costs are charged
// to the writeback timeline, so they interfere with foreground I/O
// only through the shared device queue — exactly the non-blocking
// behaviour NobLSM exploits.
//
// Callers must hold fs.mu.
func (fs *FS) catchUp(now vclock.Time) {
	for fs.lastCommit+vclock.Time(fs.cfg.CommitInterval) <= now {
		wake := fs.lastCommit.Add(fs.cfg.CommitInterval)
		fs.lastCommit = wake
		if fs.running.empty() {
			continue
		}
		fs.wb.WaitUntil(wake)
		fs.commitLocked(fs.wb.Now(), false)
	}
}

// commitLocked seals and commits the running transaction at virtual
// time at, returning the completion time. With delayed allocation the
// commit journals metadata only: each inode in the transaction becomes
// durable up to the prefix the background flusher (or an fsync) has
// already written back. A still-dirty tail is not this commit's
// business: its blocks are unallocated, the on-disk inode does not
// change until writeback reaches them, and writeback is what puts the
// inode into a later transaction (see txn). For sync==true (directory
// sync) the caller is expected to wait for the returned time; async
// commits run on the journal timeline.
//
// Sequence, per JBD2:
//  1. write the journal descriptor + metadata blocks;
//  2. issue a flush barrier;
//  3. the transaction is durable: record durable sizes (persisted
//     prefixes), apply namespace operations to the durable view, and
//     move fully-persisted Pending-Table inodes to the Committed Table
//     (the paper's step 7).
//
// Callers must hold fs.mu.
func (fs *FS) commitLocked(at vclock.Time, sync bool) vclock.Time {
	t := fs.running
	fs.running = newTxn()
	// Journal commits are serial: this one starts after prior journal
	// work completes.
	start := vclock.Max(at, fs.wb.Now())
	if t.empty() {
		if !sync {
			return start
		}
		// fsync on a clean tree still issues a barrier.
		done := fs.dev.Flush(start)
		fs.wb.WaitUntil(done)
		if done > fs.stallUntil {
			fs.stallFrom, fs.stallUntil = start, done
		}
		return done
	}

	// Journal blocks: one descriptor plus one metadata block per
	// inode, then the commit record behind a barrier. This is the
	// locked section of the commit: concurrent filesystem entries
	// stall on it (sync commits only).
	lockedFrom := start
	meta := metadataBlock * int64(1+len(t.inodes))
	done := fs.dev.Write(start, meta)
	done = fs.dev.Flush(done)
	fs.wb.WaitUntil(done)
	fs.m.journalBytes.Add(meta)
	fs.m.journalInodes.Add(int64(len(t.inodes)))

	if sync {
		if done > fs.stallUntil {
			fs.stallFrom, fs.stallUntil = lockedFrom, done
		}
	} else {
		fs.m.asyncCommits.Inc()
	}
	if fs.trace != nil {
		mode := "async"
		if sync {
			mode = "sync"
		}
		fs.trace.Span(obs.TidJournal, "journal", "jbd2.commit", start, done,
			obs.KV{K: "mode", V: mode}, obs.KV{K: "inodes", V: len(t.inodes)},
			obs.KV{K: "ns_ops", V: len(t.ops)}, obs.KV{K: "meta_bytes", V: meta})
	}

	// The transaction is durable; expose its effects.
	for _, in := range t.inodes {
		in.inRunning = false
		if !sync && in.persisted > in.durableSize {
			fs.m.bytesAsyncCommitted.Add(in.persisted - in.durableSize)
		}
		in.durableSize = in.persisted
		if fs.pending[in.ino] && in.persisted == in.data.Len() {
			delete(fs.pending, in.ino)
			fs.committed[in.ino] = true
		}
	}
	for _, op := range t.ops {
		fs.applyCommittedLocked(op)
	}
	kind := vfs.CommitAsync
	if sync {
		kind = vfs.CommitSyncDir
	}
	fs.noteCommitLocked(kind, done)
	return done
}

// fastCommitLocked implements fsync's selective commit: the target
// file's dirty data is written back and its inode — plus its own
// pending namespace operations — is journaled behind a flush barrier,
// while everything else in the running transaction stays there for the
// next asynchronous commit. This models ext4 with delayed allocation
// (the default): one file's fsync does not write back other files'
// delalloc pages, so the caller pays for its own data and the barrier
// only — which is precisely why the paper's sync *count* and per-file
// synced volume are the governing costs.
//
// Callers must hold fs.mu.
func (fs *FS) fastCommitLocked(at vclock.Time, target *inode) vclock.Time {
	// The caller's own data writeback is submitted directly to the
	// device (contending only through its queue); it does not wait
	// for the journal thread's backlog.
	done := at
	var synced int64
	if d := target.dirty(); d > 0 {
		done = fs.dev.Write(done, d)
		synced += d
		fs.dirtyBytes -= d
		target.persisted = target.data.Len()
	}
	// The journal commit itself serializes behind prior journal work
	// (JBD2 commits are ordered).
	lockedFrom := vclock.Max(done, fs.wb.Now())
	meta := metadataBlock * 2
	done = fs.dev.Write(lockedFrom, meta)
	done = fs.dev.Flush(done)
	fs.wb.WaitUntil(done)
	fs.m.bytesSynced.Add(synced)
	fs.m.journalBytes.Add(meta)
	fs.m.journalInodes.Inc()
	if done > fs.stallUntil {
		fs.stallFrom, fs.stallUntil = lockedFrom, done
	}

	// The target's inode is now durable at its current size; its own
	// namespace operations commit with it, the rest stay pending.
	target.durableSize = target.data.Len()
	if target.inRunning {
		target.inRunning = false
		delete(fs.running.inodes, target.ino)
	}
	if fs.pending[target.ino] {
		delete(fs.pending, target.ino)
		fs.committed[target.ino] = true
	}
	remaining := fs.running.ops[:0]
	for _, op := range fs.running.ops {
		if op.ino != target.ino {
			remaining = append(remaining, op)
			continue
		}
		fs.applyCommittedLocked(op)
	}
	fs.running.ops = remaining
	fs.noteCommitLocked(vfs.CommitFsync, done)
	return done
}

// applyCommittedLocked exposes one committed namespace operation in
// the durable view. Callers must hold fs.mu.
func (fs *FS) applyCommittedLocked(op nsOp) {
	switch op.kind {
	case opCreate:
		fs.durableNames[op.name] = op.ino
	case opRemove:
		if fs.durableNames[op.name] == op.ino {
			delete(fs.durableNames, op.name)
		}
		// Deleting the last link erases the file's Committed-Table
		// entry (paper's step 10), avoiding stale hits after inode
		// reuse, and frees the in-memory inode once nothing
		// references it. While other hard links remain (backup
		// exports), the inode and its commit status stay live.
		if in := fs.inodes[op.ino]; in == nil || in.nlink == 0 {
			delete(fs.committed, op.ino)
			delete(fs.pending, op.ino)
			if in != nil {
				delete(fs.inodes, op.ino)
				if in.handles == 0 {
					in.data.Release(&fs.pc)
				}
			}
		}
	case opRename:
		if fs.durableNames[op.name] == op.ino {
			delete(fs.durableNames, op.name)
		}
		fs.durableNames[op.newName] = op.ino
	}
}

// ForceCommit drains the flusher and synchronously commits the running
// transaction, making all current contents durable. It does not count
// as an application sync; it exists for tests and experiment setup
// (e.g. quiescing before a measured phase).
func (fs *FS) ForceCommit(tl *vclock.Timeline) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.catchUp(tl.Now())
	fs.flushAllLocked()
	done := fs.commitLocked(vclock.Max(tl.Now(), fs.flusher.Now()), false)
	tl.WaitUntil(done)
}

// flushAllLocked drains the flusher queue completely (unbounded by the
// caller's clock). Callers must hold fs.mu.
func (fs *FS) flushAllLocked() {
	for len(fs.flushQueue) > 0 {
		e := fs.flushQueue[0]
		fs.flushQueue = fs.flushQueue[1:]
		e.in.queued = false
		d := e.in.dirty()
		if d <= 0 || e.in.nlink == 0 {
			continue
		}
		done := fs.dev.Write(fs.flusher.Now(), d)
		fs.flusher.WaitUntil(done)
		fs.writtenBackLocked(e.in, d)
	}
}

// LastCommitAt reports the wakeup time of the most recent asynchronous
// commit cycle.
func (fs *FS) LastCommitAt() vclock.Time {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lastCommit
}
