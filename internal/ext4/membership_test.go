package ext4

import (
	"fmt"
	"testing"

	"noblsm/internal/obs"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

// The transaction-membership rule: an inode is journaled by the commit
// after a namespace operation or after writeback advanced its
// persisted prefix, and by no other. These tests hold the two things
// the rule is for — a commit's cost follows what changed, not how many
// files are waiting for the flusher — and the one thing it must not
// break: a registered inode still reaches the Committed Table.

// TestCommitCostFollowsWritebackNotDirtyBacklog leaves N dirty files
// queued behind a flusher that is busy with one large file, then lets
// the flusher work through them a few per commit interval.
func TestCommitCostFollowsWritebackNotDirtyBacklog(t *testing.T) {
	const (
		nFiles   = 30
		fileSize = 64 << 10
		interval = 20 * vclock.Millisecond
	)
	dcfg := ssd.PM883()
	dcfg.WriteBandwidth = 10 << 20 // 64 KiB ≈ 6.3 ms: about three files per interval
	cfg := DefaultConfig()
	cfg.CommitInterval = interval
	cfg.FlusherDelay = vclock.Millisecond
	r := obs.NewRegistry()
	fs := NewObserved(cfg, ssd.NewObserved(dcfg, r), r, nil)
	tl := vclock.NewTimeline(0)

	// 4 MiB at 10 MiB/s keeps the flusher busy for twenty intervals.
	if err := fs.WriteFile(tl, "big", make([]byte, 4<<20)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFiles; i++ {
		if err := fs.WriteFile(tl, fmt.Sprintf("f%02d", i), make([]byte, fileSize)); err != nil {
			t.Fatal(err)
		}
	}

	// step moves to the next commit boundary, lets the due writeback
	// and commit run, and reports what they wrote.
	type delta struct{ commits, inodes, journal, flushed, device int64 }
	step := func() delta {
		before, devBefore := fs.Stats(), counter(t, r, "ssd.bytes_written")
		tl.WaitUntil(fs.LastCommitAt().Add(interval))
		fs.Exists(tl, "big")
		after := fs.Stats()
		return delta{
			commits: after.AsyncCommits - before.AsyncCommits,
			inodes:  after.JournalInodes - before.JournalInodes,
			journal: after.JournalBytes - before.JournalBytes,
			flushed: after.BytesFlushed - before.BytesFlushed,
			device:  counter(t, r, "ssd.bytes_written") - devBefore,
		}
	}

	// First commit: the creations, and the big file's writeback.
	if d := step(); d.commits != 1 || d.inodes != nFiles+1 {
		t.Fatalf("first commit: %d commits journaling %d inodes, want 1 and %d", d.commits, d.inodes, nFiles+1)
	}

	// While the flusher is busy the N files stay dirty and untouched:
	// their on-disk inodes do not change, so there is nothing to
	// journal and the device sees no write at all.
	idle := 0
	var d delta
	for d = step(); d.flushed == 0; d = step() {
		if d.commits != 0 || d.inodes != 0 || d.journal != 0 || d.device != 0 {
			t.Fatalf("idle interval %d behind a busy flusher: %+v, want no commit and no device write", idle, d)
		}
		if idle++; idle > 100 {
			t.Fatal("flusher never reached the small files")
		}
	}
	if idle < 2 {
		t.Fatalf("only %d idle intervals before writeback resumed; the scenario needs at least two", idle)
	}

	// The flusher reaches the backlog: each commit journals exactly the
	// files written back in its interval — a few, never all N.
	flushedFiles := int64(0)
	for ; flushedFiles < nFiles; d = step() {
		k := d.flushed / fileSize
		if d.flushed%fileSize != 0 || k == 0 || k >= nFiles/2 {
			t.Fatalf("interval wrote back %d bytes; want a few whole %d-byte files", d.flushed, fileSize)
		}
		if d.commits != 1 || d.inodes != k || d.journal != metadataBlock*(1+k) {
			t.Fatalf("interval wrote back %d files but its commit journaled %d inodes in %d bytes (%d commits)",
				k, d.inodes, d.journal, d.commits)
		}
		flushedFiles += k
	}

	for i := 0; i < nFiles; i++ {
		if got := fs.DurableSize(fmt.Sprintf("f%02d", i)); got != fileSize {
			t.Fatalf("f%02d durable to %d bytes after its writeback committed, want %d", i, got, fileSize)
		}
	}
	// Every device write is one of the three kinds the counters name.
	st, dev := fs.Stats(), counter(t, r, "ssd.bytes_written")
	if sum := st.BytesFlushed + st.BytesSynced + st.JournalBytes; sum != dev {
		t.Fatalf("flushed %d + synced %d + journal %d = %d, device wrote %d",
			st.BytesFlushed, st.BytesSynced, st.JournalBytes, sum, dev)
	}
}

// TestPendingInodeCommitsWithItsWriteback registers an inode and never
// touches it again: the commit that follows its creation does not
// cover its data, the commit that follows its writeback does.
func TestPendingInodeCommitsWithItsWriteback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommitInterval = 10 * vclock.Millisecond
	cfg.FlusherDelay = 25 * vclock.Millisecond
	fs := New(cfg, ssd.New(ssd.PM883()))
	tl := vclock.NewTimeline(0)

	f, _ := fs.Create(tl, "sst")
	f.Append(tl, make([]byte, 3000))
	fs.CheckCommit(tl, f.Ino())

	// Commits at 10 and 20 ms: the data is still ageing in the cache.
	for i := 0; i < 2; i++ {
		tl.WaitUntil(fs.LastCommitAt().Add(cfg.CommitInterval))
		if fs.IsCommitted(tl, f.Ino()) {
			t.Fatalf("committed at %v with its data still dirty", tl.Now())
		}
	}
	if _, _, _, persisted, _, durable := fs.DebugState("sst"); persisted != 0 || durable != 0 {
		t.Fatalf("persisted %d, durable %d before the flusher delay elapsed", persisted, durable)
	}
	// Commit at 30 ms: the flusher wrote the file back at 25 ms, which
	// put the inode — in no transaction since its creation committed —
	// into this one.
	tl.WaitUntil(fs.LastCommitAt().Add(cfg.CommitInterval))
	if !fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("not committed by the first commit after its last byte was written back")
	}
	if fs.PendingCount() != 0 || fs.DurableSize("sst") != 3000 {
		t.Fatalf("pending=%d durable=%d, want 0 and 3000", fs.PendingCount(), fs.DurableSize("sst"))
	}

	// A file fsynced before registration never enters the Pending
	// Table, although no periodic commit has carried it.
	g, _ := fs.Create(tl, "synced")
	g.Append(tl, make([]byte, 500))
	g.Sync(tl)
	fs.CheckCommit(tl, g.Ino())
	if fs.PendingCount() != 0 || !fs.IsCommitted(tl, g.Ino()) {
		t.Fatalf("fsynced inode: pending=%d, want straight to the Committed Table", fs.PendingCount())
	}
}
