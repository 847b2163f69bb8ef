package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// dumpDB snapshots the full visible contents via an iterator.
func dumpDB(t testing.TB, db *DB, tl *vclock.Timeline) map[string]string {
	t.Helper()
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out := make(map[string]string)
	for it.First(); it.Valid(); it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

func diffDumps(t testing.TB, want, got map[string]string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %q = %q, want %q", label, k, got[k], v)
		}
	}
}

// restoreAndOpen restores a checkpoint/backup export and opens it.
func restoreAndOpen(t *testing.T, tl *vclock.Timeline, fs vfs.FS, src, dst string, opts Options) *DB {
	t.Helper()
	rep, err := RestoreBackup(tl, fs, src, dst, opts)
	if err != nil {
		t.Fatalf("restore %s: %v", src, err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("restore %s quarantined %v", src, rep.Quarantined)
	}
	db, err := Open(tl, vfs.NewPrefix(fs, dst), opts)
	if err != nil {
		t.Fatalf("open restored %s: %v", dst, err)
	}
	return db
}

func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, mode := range []SyncMode{SyncAll, SyncNobLSM} {
		t.Run(mode.String(), func(t *testing.T) {
			db, fs, tl := newDB(t, mode)
			workload(t, db, tl, 1200, 0)
			want := dumpDB(t, db, tl)

			info, err := db.Checkpoint(tl, "ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if len(info.Tables) == 0 {
				t.Fatal("checkpoint captured no tables")
			}
			// Keep mutating the primary: the checkpoint must not see it.
			workload(t, db, tl, 1200, 1)

			rdb := restoreAndOpen(t, tl, fs, "ckpt", "restore", smallOpts(mode))
			defer rdb.Close(tl)
			diffDumps(t, want, dumpDB(t, rdb, tl), "restored checkpoint")
			if got := rdb.visibleSeq.Load(); got != info.LastSeq {
				t.Fatalf("restored seq = %d, want %d", got, info.LastSeq)
			}
			if healed, err := rdb.ScrubTables(tl); err != nil || healed != 0 {
				t.Fatalf("restored scrub: healed=%d err=%v", healed, err)
			}
			if err := db.ReleaseCheckpoint(tl, info.ID); err != nil {
				t.Fatal(err)
			}
			// Release deletes the export but never the restored copy.
			if fs.Exists(tl, "ckpt/CURRENT") {
				t.Fatal("release left the export behind")
			}
			diffDumps(t, want, dumpDB(t, rdb, tl), "restored copy after release")
		})
	}
}

func TestCheckpointZeroCopy(t *testing.T) {
	db, fs, tl := newDB(t, SyncNobLSM)
	workload(t, db, tl, 1500, 0)
	info, err := db.Checkpoint(tl, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range info.Files {
		kind, _, ok := ParseFileName(f.Name)
		if !ok || kind != KindTable {
			continue
		}
		if !f.Linked {
			t.Fatalf("table %s was copied, not linked", f.Name)
		}
		src, err := fs.Open(tl, f.Name)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := fs.Open(tl, "ckpt/"+f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if src.Ino() != dst.Ino() {
			t.Fatalf("%s: export ino %d != primary ino %d (bytes duplicated)",
				f.Name, dst.Ino(), src.Ino())
		}
		src.Close(tl)
		dst.Close(tl)
	}
	if info.Linked == 0 {
		t.Fatal("no files exported zero-copy")
	}
	// A second checkpoint into the same directory must refuse.
	if _, err := db.Checkpoint(tl, "ckpt"); err == nil {
		t.Fatal("checkpoint into non-empty dir succeeded")
	}
	if err := db.ReleaseCheckpoint(tl, info.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseCheckpoint(tl, info.ID); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestBackupIncrementalRestore(t *testing.T) {
	db, fs, tl := newDB(t, SyncNobLSM)
	workload(t, db, tl, 2000, 0)
	b1, err := db.Backup(tl, "bk")
	if err != nil {
		t.Fatal(err)
	}
	if b1.TablesLinked == 0 || b1.TablesReused != 0 {
		t.Fatalf("first backup: linked=%d reused=%d", b1.TablesLinked, b1.TablesReused)
	}
	// A backup holds no reference: nothing stays pinned afterward.
	if n := len(db.Checkpoints()); n != 0 {
		t.Fatalf("backup left %d live checkpoint refs", n)
	}

	// Small delta: the second run must reuse the bulk of the tables.
	for i := 0; i < 100; i++ {
		mustPut(t, db, tl, fmt.Sprintf("key%013d", 9000000+i), "delta")
	}
	want := dumpDB(t, db, tl)
	b2, err := db.Backup(tl, "bk")
	if err != nil {
		t.Fatal(err)
	}
	if b2.TablesReused == 0 {
		t.Fatalf("incremental backup reused no tables (linked=%d)", b2.TablesLinked)
	}
	if b2.LastSeq <= b1.LastSeq {
		t.Fatalf("backup seq did not advance: %d -> %d", b1.LastSeq, b2.LastSeq)
	}
	if lb := db.LastBackup(); lb == nil || lb.LastSeq != b2.LastSeq {
		t.Fatalf("LastBackup = %+v, want seq %d", lb, b2.LastSeq)
	}

	rdb := restoreAndOpen(t, tl, fs, "bk", "bkrst", smallOpts(SyncNobLSM))
	defer rdb.Close(tl)
	diffDumps(t, want, dumpDB(t, rdb, tl), "restored incremental backup")
	if healed, err := rdb.ScrubTables(tl); err != nil || healed != 0 {
		t.Fatalf("restored scrub: healed=%d err=%v", healed, err)
	}
}

// TestCheckpointRetainsShadowPredecessors drives compactions past a
// checkpoint so captured tables are superseded, then journal commits
// and polls until the tracker has released some of them: a released
// table stays on disk for as long as the reference lives, and the
// release's disposal pass unlinks it.
func TestCheckpointRetainsShadowPredecessors(t *testing.T) {
	db, fs, tl := newDB(t, SyncNobLSM)
	workload(t, db, tl, 1500, 0)
	info, err := db.Checkpoint(tl, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		workload(t, db, tl, 1500, round)
	}
	// released lists the checkpointed tables no version names and no
	// dependency protects any more: only the reference can keep them.
	released := func() (nums []uint64) {
		live := db.Version().LiveFiles()
		for _, n := range info.Tables {
			if !live[n] && !db.Tracker().Protected(n) {
				nums = append(nums, n)
			}
		}
		return nums
	}
	for i := 0; i < 50 && len(released()) == 0; i++ {
		tl.Advance(200 * vclock.Millisecond)
		mustPut(t, db, tl, "tick", fmt.Sprintf("%d", i))
		db.Tracker().Poll(tl)
	}
	held := released()
	if len(held) == 0 {
		t.Fatal("no checkpointed table was superseded and released")
	}
	// One more pass with the reference alive must keep them too.
	db.mu.Lock()
	db.deleteObsolete(tl)
	db.mu.Unlock()
	for _, n := range held {
		if !fs.Exists(tl, TableName(n)) {
			t.Fatalf("released table %d unlinked while its checkpoint lives", n)
		}
	}
	if err := db.ReleaseCheckpoint(tl, info.ID); err != nil {
		t.Fatal(err)
	}
	for _, n := range released() {
		if fs.Exists(tl, TableName(n)) {
			t.Fatalf("table %d still on disk after the last release", n)
		}
	}
}

// TestCheckpointConcurrentGC races checkpoints against a live writer
// with background flushes, compaction installs and async obsolete-file
// deletion. Every exported file must exist and every export must
// restore cleanly — a pinned file may never be lost to a concurrent
// deleteObsolete or compaction install (run under -race).
func TestCheckpointConcurrentGC(t *testing.T) {
	opts := smallOpts(SyncNobLSM)
	opts.AsyncCompaction = true
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wtl := vclock.NewTimeline(0)
		r := rand.New(rand.NewSource(7))
		val := make([]byte, 64)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range val {
				val[j] = byte(i + j)
			}
			k := fmt.Sprintf("key%013d", r.Intn(4000))
			if err := db.Put(wtl, []byte(k), val); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	ctl := vclock.NewTimeline(0)
	for round := 0; round < 12; round++ {
		dir := fmt.Sprintf("ckpt-%d", round)
		info, err := db.Checkpoint(ctl, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range info.Files {
			if !fs.Exists(ctl, dir+"/"+f.Name) {
				t.Fatalf("round %d: exported %s missing", round, f.Name)
			}
		}
		if round%4 == 0 {
			rst := fmt.Sprintf("rst-%d", round)
			rep, err := RestoreBackup(ctl, fs, dir, rst, opts)
			if err != nil {
				t.Fatalf("round %d restore: %v", round, err)
			}
			if len(rep.Quarantined) != 0 {
				t.Fatalf("round %d restore quarantined %v", round, rep.Quarantined)
			}
		}
		if err := db.ReleaseCheckpoint(ctl, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := db.Close(ctl); err != nil {
		t.Fatal(err)
	}
}
