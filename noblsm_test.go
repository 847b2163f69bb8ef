package noblsm

import (
	"fmt"
	"strings"
	"testing"

	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// counter reads one of db's counters by name; a name the registry does
// not hold fails the test, so a typo cannot read as 0.
func counter(t *testing.T, db *DB, name string) int64 {
	t.Helper()
	v, ok := db.Counters()[name]
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return v
}

func TestOpenPutGet(t *testing.T) {
	db, err := Open(NobLSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("missing: %v", err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("deleted: %v", err)
	}
	if db.Variant() != NobLSM {
		t.Fatal("variant lost")
	}
}

func TestScan(t *testing.T) {
	db, err := Open(LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	var got []string
	err = db.Scan([]byte("key050"), 5, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"key050", "key051", "key052", "key053", "key054"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v", got)
		}
	}
	// Early stop.
	n := 0
	db.Scan(nil, 100, func(k, v []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestCrashReopenKeepsDurableData(t *testing.T) {
	// A short virtual run needs a proportionally short commit
	// interval, or the whole workload fits inside the first (not yet
	// durable) journal window.
	db, err := Open(NobLSM, Config{
		WriteBufferSize: 16 << 10, TableFileSize: 16 << 10, Seed: 3,
		CommitInterval: vclock.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%06d", i*2654435761%3000)
		db.Put([]byte(k), []byte(fmt.Sprintf("value-%s", k)))
	}
	db.Crash()
	if err := db.Reopen(); err != nil {
		t.Fatal(err)
	}
	survived := 0
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%06d", i)
		v, err := db.Get([]byte(k))
		if err != nil {
			continue
		}
		if string(v) != "value-"+k {
			t.Fatalf("key %s corrupted: %q", k, v)
		}
		survived++
	}
	if survived == 0 {
		t.Fatal("nothing survived the crash")
	}
}

func TestAdvanceTimeDrivesCommits(t *testing.T) {
	db, err := Open(NobLSM, Config{CommitInterval: vclock.Second})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	before := counter(t, db, "ext4.async_commits")
	db.AdvanceTime(3 * vclock.Second)
	db.Put([]byte("k2"), []byte("v2")) // entry point runs due commits
	if after := counter(t, db, "ext4.async_commits"); after <= before {
		t.Fatalf("no async commits after advancing time (%d -> %d)", before, after)
	}
	if db.Now() < vclock.Time(3*vclock.Second) {
		t.Fatalf("clock did not advance: %v", db.Now())
	}
}

func TestStatsExposeStack(t *testing.T) {
	db, err := Open(LevelDB, Config{WriteBufferSize: 8 << 10, TableFileSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i*37%2000)), make([]byte, 64))
	}
	if puts := counter(t, db, "engine.puts"); puts != 2000 {
		t.Fatalf("puts = %d", puts)
	}
	if syncs, written := counter(t, db, "ext4.syncs"), counter(t, db, "ssd.bytes_written"); syncs == 0 || written == 0 {
		t.Fatalf("stack counters empty: %d syncs, %d device bytes written", syncs, written)
	}
}

// TestDoctorPrintsStallLedger: a store from Open has no telemetry, yet
// after a fill that throttles its doctor report itemizes the stalls by
// cause, with the registry's counts.
func TestDoctorPrintsStallLedger(t *testing.T) {
	db, err := Open(LevelDB, Config{WriteBufferSize: 8 << 10, TableFileSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i*37%5000)), make([]byte, 256))
	}
	doc, _ := db.Property("noblsm.doctor")
	_, ledger, _ := strings.Cut(doc, "-- stall ledger --\n")
	ledger, _, _ = strings.Cut(ledger, "\n\n")
	stalled := 0
	for c := obs.StallCause(0); int(c) < obs.NumStallCauses; c++ {
		n := counter(t, db, c.Metric("count"))
		if n == 0 {
			continue
		}
		stalled++
		if !strings.Contains(ledger, fmt.Sprintf("count=%d ", n)) || !strings.Contains(ledger, c.String()) {
			t.Errorf("doctor's stall ledger misses %s count=%d:\n%s", c, n, ledger)
		}
	}
	if stalled == 0 {
		t.Fatalf("the fill never throttled:\n%s", doc)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Open(Variant("NopeDB")); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := Open(NobLSM, Config{}, Config{}); err == nil {
		t.Fatal("two configs accepted")
	}
}

func TestCloseThenReopen(t *testing.T) {
	db, err := Open(LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("persist"), []byte("me"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Reopen(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("persist"))
	if err != nil || string(v) != "me" {
		t.Fatalf("after reopen: %q, %v", v, err)
	}
}

func TestBloomDisable(t *testing.T) {
	db, err := Open(LevelDB, Config{BloomBitsPerKey: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if v, _ := db.Get([]byte("k")); string(v) != "v" {
		t.Fatal("filterless store broken")
	}
}

// TestScanReleasesTables: once Scan returns, the tables it read are no
// longer pinned, so when a compaction supersedes them and its outputs
// commit, the next poll unlinks every one.
func TestScanReleasesTables(t *testing.T) {
	db, err := Open(NobLSM, Config{
		WriteBufferSize: 16 << 10, TableFileSize: 16 << 10,
		CommitInterval: vclock.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key%06d", i*2654435761%2000)
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var before []uint64
	for _, files := range db.db.Version().Files {
		for _, fm := range files {
			before = append(before, fm.Number)
		}
	}
	if len(before) == 0 {
		t.Fatal("the fill left no tables")
	}
	if err := db.Scan(nil, 10, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := db.db.CompactRange(db.tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	db.fs.ForceCommit(db.tl)
	db.db.Tracker().Poll(db.tl)
	live := map[uint64]bool{}
	for _, files := range db.db.Version().Files {
		for _, fm := range files {
			live[fm.Number] = true
		}
	}
	for _, num := range before {
		if name := engine.TableName(num); !live[num] && db.fs.Exists(db.tl, name) {
			t.Errorf("superseded table %s survived the poll", name)
		}
	}
}
