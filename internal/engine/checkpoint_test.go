package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
	"noblsm/internal/wal"
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

// restoreAndOpen restores a backup and opens it.
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

// exportedNames lists the files a backup into dir must hold: CURRENT,
// the manifest it names, every table of that manifest's snapshot, and
// the live WAL's prefix — which must be exactly info.WALOff bytes long.
func exportedNames(t *testing.T, tl *vclock.Timeline, fs vfs.FS, dir string, info *BackupInfo) []string {
	t.Helper()
	cur, err := fs.ReadFile(tl, dir+"/"+CurrentName)
	if err != nil {
		t.Fatal(err)
	}
	mname := strings.TrimSpace(string(cur))
	data, err := fs.ReadFile(tl, dir+"/"+mname)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{CurrentName, mname, LogName(info.WALNumber)}
	for _, r := range wal.ScanRecords(data) {
		edit, err := version.DecodeEdit(r.Payload)
		if !r.Valid || err != nil {
			t.Fatalf("%s/%s: damaged snapshot record (%v)", dir, mname, err)
		}
		for _, nf := range edit.NewFiles {
			names = append(names, TableName(nf.Meta.Number))
		}
	}
	if sz, err := fs.Size(tl, dir+"/"+LogName(info.WALNumber)); err != nil || sz != info.WALOff {
		t.Fatalf("%s: WAL prefix is %d bytes (%v), want %d", dir, sz, err, info.WALOff)
	}
	return names
}

func TestBackupRestoreEquivalence(t *testing.T) {
	for _, mode := range []SyncMode{SyncAll, SyncNobLSM} {
		t.Run(mode.String(), func(t *testing.T) {
			db, fs, tl := newDB(t, mode)
			workload(t, db, tl, 1200, 0)
			want := dumpDB(t, db, tl)

			info, err := db.Backup(tl, "bk")
			if err != nil {
				t.Fatal(err)
			}
			if info.TablesLinked == 0 || info.TablesReused != 0 || info.Pruned != 0 {
				t.Fatalf("backup into a fresh directory: linked=%d reused=%d pruned=%d",
					info.TablesLinked, info.TablesReused, info.Pruned)
			}
			// Keep mutating the primary: the backup must not see it.
			workload(t, db, tl, 1200, 1)

			rdb := restoreAndOpen(t, tl, fs, "bk", "restore", smallOpts(mode))
			defer rdb.Close(tl)
			diffDumps(t, want, dumpDB(t, rdb, tl), "restored backup")
			if got := rdb.visibleSeq.Load(); got != info.LastSeq {
				t.Fatalf("restored seq = %d, want %d", got, info.LastSeq)
			}
			if healed, err := rdb.ScrubTables(tl); err != nil || healed != 0 {
				t.Fatalf("restored scrub: healed=%d err=%v", healed, err)
			}
		})
	}
}

// TestBackupZeroCopy: every table of a backup shares its inode with the
// primary's — the export duplicated no table bytes.
func TestBackupZeroCopy(t *testing.T) {
	db, fs, tl := newDB(t, SyncNobLSM)
	workload(t, db, tl, 1500, 0)
	info, err := db.Backup(tl, "bk")
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, name := range fs.List(tl) {
		rest, ok := strings.CutPrefix(name, "bk/")
		if kind, _, parsed := ParseFileName(rest); !ok || !parsed || kind != KindTable {
			continue
		}
		src, err := fs.Open(tl, rest)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := fs.Open(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		if src.Ino() != dst.Ino() {
			t.Fatalf("%s: export ino %d != primary ino %d (bytes duplicated)", rest, dst.Ino(), src.Ino())
		}
		src.Close(tl)
		dst.Close(tl)
		tables++
	}
	if tables == 0 || info.TablesLinked < tables {
		t.Fatalf("%d tables exported, %d files linked", tables, info.TablesLinked)
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
	g := db.reg.Snapshot().Gauges
	if g["engine.ckpt.last_backup_seq"] != int64(b2.LastSeq) || g["engine.ckpt.last_backup_at_ns"] != int64(b2.At) {
		t.Fatalf("registry's last backup: seq %d at %d, want seq %d at %d",
			g["engine.ckpt.last_backup_seq"], g["engine.ckpt.last_backup_at_ns"], b2.LastSeq, b2.At)
	}
	if doc, _ := db.Property("noblsm.doctor"); !strings.Contains(doc, "-- backup --\nbackups taken         2\n") {
		t.Fatalf("doctor's backup section does not count two backups:\n%s", doc)
	}

	rdb := restoreAndOpen(t, tl, fs, "bk", "bkrst", smallOpts(SyncNobLSM))
	defer rdb.Close(tl)
	diffDumps(t, want, dumpDB(t, rdb, tl), "restored incremental backup")
	if healed, err := rdb.ScrubTables(tl); err != nil || healed != 0 {
		t.Fatalf("restored scrub: healed=%d err=%v", healed, err)
	}
}

// TestBackupOutlivesPrimaryGC drives compactions past a backup until
// the tracker has released some backed-up tables and the primary has
// unlinked them. Nothing pins them: the backup's hard links keep their
// bytes, and the backup still restores to the store's contents at its
// cut.
func TestBackupOutlivesPrimaryGC(t *testing.T) {
	db, fs, tl := newDB(t, SyncNobLSM)
	workload(t, db, tl, 1500, 0)
	want := dumpDB(t, db, tl)
	info, err := db.Backup(tl, "bk")
	if err != nil {
		t.Fatal(err)
	}
	var backedUp []uint64
	for _, name := range fs.List(tl) {
		rest, ok := strings.CutPrefix(name, "bk/")
		if kind, num, parsed := ParseFileName(rest); ok && parsed && kind == KindTable {
			backedUp = append(backedUp, num)
		}
	}
	for round := 1; round <= 4; round++ {
		workload(t, db, tl, 1500, round)
	}
	// gone lists the backed-up tables the primary has unlinked.
	gone := func() (nums []uint64) {
		for _, n := range backedUp {
			if !fs.Exists(tl, TableName(n)) {
				nums = append(nums, n)
			}
		}
		return nums
	}
	for i := 0; i < 50 && len(gone()) == 0; i++ {
		tl.Advance(200 * vclock.Millisecond)
		mustPut(t, db, tl, "tick", fmt.Sprintf("%d", i))
		db.Tracker().Poll(tl)
	}
	unlinked := gone()
	if len(unlinked) == 0 {
		t.Fatal("no backed-up table was superseded, released and unlinked from the primary")
	}
	t.Logf("%d of %d backed-up tables unlinked from the primary", len(unlinked), len(backedUp))
	live := db.Version().LiveFiles()
	for _, n := range unlinked {
		if live[n] || db.Tracker().Protected(n) {
			t.Fatalf("table %d unlinked while the version or the tracker holds it", n)
		}
		if !fs.Exists(tl, "bk/"+TableName(n)) {
			t.Fatalf("backup lost table %d with its primary name", n)
		}
	}

	rdb := restoreAndOpen(t, tl, fs, "bk", "rst", smallOpts(SyncNobLSM))
	defer rdb.Close(tl)
	diffDumps(t, want, dumpDB(t, rdb, tl), "restored backup after primary GC")
	if got := rdb.visibleSeq.Load(); got != info.LastSeq {
		t.Fatalf("restored seq = %d, want %d", got, info.LastSeq)
	}
}

// TestBackupConcurrentGC races backups into fresh directories against a
// live writer with background flushes, compaction installs and
// obsolete-file deletion on the goroutine executor. Every exported file
// must exist and every fourth backup must restore cleanly: a file the
// cut names may never be lost to a concurrent deleteObsolete or
// compaction install (run under -race).
func TestBackupConcurrentGC(t *testing.T) {
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
		info, err := db.Backup(ctl, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exportedNames(t, ctl, fs, dir, info) {
			if !fs.Exists(ctl, dir+"/"+name) {
				t.Fatalf("round %d: exported %s missing", round, name)
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
	}
	close(stop)
	wg.Wait()
	if err := db.Close(ctl); err != nil {
		t.Fatal(err)
	}
}
