package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// healValue derives a deterministic ~512-byte value from its key.
func healValue(key string) []byte {
	v := bytes.Repeat([]byte(key+"|"), 512/(len(key)+1)+1)
	return v[:512]
}

// TestSelfHealingRead corrupts a compaction successor at rest while
// its dependency is still unresolved (huge poll interval), then reads
// through it: the engine must detect the CRC failure, roll the version
// back onto the retained shadow predecessors, quarantine the bad
// table, serve every value correctly, and rebuild the level.
func TestSelfHealingRead(t *testing.T) {
	opts := smallOpts(SyncNobLSM)
	// Keep every dependency unresolved so predecessors stay retained.
	opts.PollInterval = vclock.Duration(1) << 50
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Unique keys in shuffled order (no version shadowing: every Get
	// must consult the table that holds its key), until a major
	// compaction leaves behind a currently-healable repair plan.
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(4000)
	var written []string
	var candidate uint64
	var candMeta *version.FileMeta
	for _, i := range perm {
		key := fmt.Sprintf("key%05d", i)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
		written = append(written, key)
		if len(written)%25 == 0 && len(written) > 200 {
			if cands := db.HealableSuccessors(); len(cands) > 0 {
				candidate = cands[0]
				db.mu.Lock()
				for _, s := range db.repairPlanFor(candidate).succs {
					if s.meta.Number == candidate {
						candMeta = s.meta
					}
				}
				db.mu.Unlock()
			}
			if candidate != 0 {
				break
			}
		}
	}
	if candidate == 0 {
		t.Fatal("no healable repair plan after workload; grow the write count")
	}

	// At-rest bit rot in one of the successor's data blocks, with its
	// cached handle and blocks dropped so reads go back to the medium.
	if err := fs.CorruptAt(TableName(candidate), candMeta.Size/3); err != nil {
		t.Fatal(err)
	}
	db.tcache.evict(tl, candidate)

	// Read keys inside the damaged table's range first: one of them
	// lands in the corrupt block and must come back healed, served
	// from the shadow predecessors.
	var inRange, rest []string
	for _, key := range written {
		if keys.CompareUser([]byte(key), candMeta.SmallestUser()) >= 0 &&
			keys.CompareUser([]byte(key), candMeta.LargestUser()) <= 0 {
			inRange = append(inRange, key)
		} else {
			rest = append(rest, key)
		}
	}
	if len(inRange) == 0 {
		t.Fatal("no written keys inside the corrupted table's range")
	}
	for _, key := range append(inRange, rest...) {
		v, err := db.Get(tl, []byte(key))
		if err != nil {
			t.Fatalf("Get(%s) after corruption: %v", key, err)
		}
		if !bytes.Equal(v, healValue(key)) {
			t.Fatalf("Get(%s) = %d bytes, wrong value", key, len(v))
		}
	}

	if got := db.m.readsHealed.Value(); got < 1 {
		t.Fatalf("reads healed = %d, want >= 1", got)
	}
	if got := db.m.tablesQuarantined.Value(); got < 1 {
		t.Fatalf("tables quarantined = %d, want >= 1", got)
	}
	if !fs.Exists(tl, TableName(candidate)+".corrupt") {
		t.Fatal("corrupt successor not quarantined under .corrupt")
	}
	db.mu.Lock()
	for level := 0; level < version.NumLevels; level++ {
		if fileAtLevel(db.current, level, candidate) {
			db.mu.Unlock()
			t.Fatalf("quarantined table %d still live at level %d", candidate, level)
		}
	}
	db.mu.Unlock()

	// The whole store must still scan clean, end to end.
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Value(), healValue(string(it.Key()))) {
			t.Fatalf("scan: wrong value for %s", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(written) {
		t.Fatalf("scan found %d keys, want %d", n, len(written))
	}
	if _, err := db.ScrubTables(tl); err != nil {
		t.Fatalf("scrub after heal: %v", err)
	}
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
}

// TestPermanentFlushErrorGoesReadOnly injects a permanent table-create
// failure under both executors: the flush must escalate to a permanent
// error instead of dying silently, writes must fail fast, reads must
// keep serving the parked memtable, and Close/CompactRange must report
// the pending background error. The inline executor flushes within the
// Write that filled the memtable, so that Write returns the error.
func TestPermanentFlushErrorGoesReadOnly(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) { testPermanentFlushError(t, async) })
	}
}

func testPermanentFlushError(t *testing.T, async bool) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	ffs, ctl := vfs.NewFaultFS(fs, 1)
	opts := smallOpts(SyncAll)
	opts.AsyncCompaction = async
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ffs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctl.AddRule(vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpCreate, Kind: vfs.KindError})

	var writeErr error
	var acked []string
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key%05d", i)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			writeErr = err
			break
		}
		acked = append(acked, key)
	}
	if writeErr == nil {
		t.Fatal("writes kept succeeding although every flush fails")
	}
	db.mu.Lock()
	db.waitIdle()
	db.mu.Unlock()
	if !db.ReadOnly() {
		t.Fatal("database not read-only after permanent flush failure")
	}
	if db.BackgroundError() == nil {
		t.Fatal("no background error recorded")
	}
	if !async && writeErr != db.BackgroundError() {
		t.Fatalf("the Write that filled the memtable returned %v, want the flush's error %v", writeErr, db.BackgroundError())
	}
	if err := db.Put(tl, []byte("late"), []byte("write")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after permanent error = %v, want ErrReadOnly", err)
	}

	// Acked writes stay readable: the failed flush keeps its memtable
	// parked instead of dropping it.
	for _, key := range acked {
		v, err := db.Get(tl, []byte(key))
		if err != nil || !bytes.Equal(v, healValue(key)) {
			t.Fatalf("Get(%s) after permanent error: %v", key, err)
		}
	}

	prop, ok := db.Property("noblsm.background-errors")
	if !ok || !strings.Contains(prop, "read-only             true") {
		t.Fatalf("background-errors property missing read-only state:\n%s", prop)
	}
	if err := db.CompactRange(tl, nil, nil); err == nil {
		t.Fatal("CompactRange succeeded despite permanent background error")
	}
	if err := db.Close(tl); err == nil {
		t.Fatal("Close did not report the pending background error")
	}
}
