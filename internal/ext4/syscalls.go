package ext4

import (
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// This file implements the paper's two kernel extensions (Section
// 4.2): the check_commit and is_committed syscalls over the Pending
// and Committed inode tables. NobLSM's user-space tracker (package
// internal/core) is their only intended caller.

// CheckCommit registers inodes for commit tracking — the check_commit
// syscall. Inodes whose current contents are already durable (clean
// and committed at full size) go straight to the Committed Table;
// otherwise they are placed in the Pending Table and migrate at the
// commit that covers their last byte. A pending inode with a dirty
// tail is in no transaction in the meantime: writeback puts it into
// the one that will commit it.
func (fs *FS) CheckCommit(tl *vclock.Timeline, inos ...int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	if fs.trace != nil {
		fs.trace.Instant(obs.TidTracker, "syscall", "check_commit", tl.Now(),
			obs.KV{K: "inodes", V: len(inos)})
	}
	for _, ino := range inos {
		in, ok := fs.inodes[ino]
		if !ok {
			continue
		}
		// In the running transaction means a namespace operation or a
		// written-back prefix the journal has not covered yet: that
		// commit vouches for the inode, not this call.
		if !in.inRunning && in.durableSize == in.data.Len() {
			fs.committed[ino] = true
			continue
		}
		fs.pending[ino] = true
	}
}

// IsCommitted reports whether ino has reached the Committed Table —
// the is_committed syscall. It first lets any due asynchronous commits
// run, since NobLSM's 5-second polling cadence is aligned with the
// journal commit interval precisely so each poll observes the latest
// commit.
func (fs *FS) IsCommitted(tl *vclock.Timeline, ino int64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	committed := fs.committed[ino]
	if fs.trace != nil {
		fs.trace.Instant(obs.TidTracker, "syscall", "is_committed", tl.Now(),
			obs.KV{K: "ino", V: ino}, obs.KV{K: "committed", V: committed})
	}
	return committed
}

// CommittedSize reports how many bytes of ino are journal-committed —
// the durable prefix after a crash. It is the natural companion query
// to is_committed for append-only files that never finish growing
// (NobLSM uses it to defer write-ahead-log deletion until the MANIFEST
// edit that supersedes the log is itself durable).
func (fs *FS) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	in, ok := fs.inodes[ino]
	if !ok || in.durableSize < 0 {
		return 0
	}
	return in.durableSize
}

// PendingCount reports the Pending Table population (for tests and
// introspection).
func (fs *FS) PendingCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.pending)
}

// CommittedCount reports the Committed Table population.
func (fs *FS) CommittedCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.committed)
}
