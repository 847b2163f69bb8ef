package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// healValue derives a deterministic ~512-byte value from its key.
func healValue(key string) []byte {
	v := bytes.Repeat([]byte(key+"|"), 512/(len(key)+1)+1)
	return v[:512]
}

// liveTable returns table num's metadata and level in the current
// version, or nil and -1.
func liveTable(db *DB, num uint64) (*version.FileMeta, int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for level, files := range db.current.Files {
		for _, f := range files {
			if f.Number == num {
				return f, level
			}
		}
	}
	return nil, -1
}

// openRetaining opens a store in mode whose dependencies never resolve
// on their own: a poll is due only after 2^50 ns.
func openRetaining(t *testing.T, mode SyncMode) (*DB, *ext4.FS, *vclock.Timeline) {
	t.Helper()
	opts := smallOpts(mode)
	opts.PollInterval = vclock.Duration(1) << 50
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close(tl) })
	return db, fs, tl
}

// compactFirstL0 runs the compaction of L0's first table by hand.
func compactFirstL0(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	c := version.SetupCompaction(db.current, 0, db.current.Files[0][0], &db.pointers, db.opts.Picker)
	if err := db.doCompaction(db.pickBg(), c); err != nil {
		t.Fatal(err)
	}
}

// corruptAndGet flips a bit in table num's first data block, drops its
// cached copy and reads key, whose lookup goes through it.
func corruptAndGet(t *testing.T, db *DB, fs *ext4.FS, tl *vclock.Timeline, num uint64, key string) ([]byte, error) {
	t.Helper()
	if err := fs.CorruptAt(TableName(num), 0); err != nil {
		t.Fatal(err)
	}
	db.EvictTable(tl, num)
	return db.Get(tl, []byte(key))
}

func mustGet(t *testing.T, db *DB, tl *vclock.Timeline, key, want string) {
	t.Helper()
	if v, err := db.Get(tl, []byte(key)); err != nil || string(v) != want {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, want)
	}
}

// compactAll flushes the memtable and pushes everything down
// (CompactRange over the whole key space).
func compactAll(t *testing.T, db *DB, tl *vclock.Timeline) {
	t.Helper()
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// tombstoneMerge leaves one unresolved dependency: P{a, k-tombstone},
// moved down to L5, merged with Q{a} on L6 into the one successor
// S{a}, which it returns — the tombstone dropped at the base level, so
// S is narrower than P.
func tombstoneMerge(t *testing.T, db *DB, tl *vclock.Timeline) uint64 {
	t.Helper()
	mustPut(t, db, tl, "a", "v0")
	compactAll(t, db, tl)
	mustPut(t, db, tl, "a", "v1")
	if err := db.Delete(tl, []byte("k")); err != nil {
		t.Fatal(err)
	}
	compactAll(t, db, tl)
	v := db.Version()
	if len(v.Files[version.NumLevels-1]) != 1 {
		t.Fatalf("want one table on the last level after the merge: %v", v.Files)
	}
	return v.Files[version.NumLevels-1][0].Number
}

// TestHealRestoresNewerTableAboveShadow heals a successor whose
// predecessor P comes back over a newer table T that holds a later
// write of a key P deletes: T sits deeper than P's level, or P is on
// L0 and T on any level below. The heal must move T back above P, not
// leave the tombstone shadowing the acknowledged write.
func TestHealRestoresNewerTableAboveShadow(t *testing.T) {
	t.Run("deeper", func(t *testing.T) {
		db, fs, tl := openRetaining(t, SyncNobLSM)
		s := tombstoneMerge(t, db, tl)
		// T{k} moves down beside S.
		mustPut(t, db, tl, "k", "v2")
		compactAll(t, db, tl)
		last := db.Version().Files[version.NumLevels-1]
		if len(last) != 2 || last[0].Number != s {
			t.Fatalf("want S and T on the last level: %v", last)
		}
		tnum := last[1].Number
		if got := db.HealableSuccessors(); !slices.Equal(got, []uint64{s}) {
			t.Fatalf("HealableSuccessors = %v, want [%d]", got, s)
		}
		if v, err := corruptAndGet(t, db, fs, tl, s, "a"); err != nil || string(v) != "v1" {
			t.Fatalf("Get(a) through the corrupt successor = %q, %v", v, err)
		}
		mustGet(t, db, tl, "k", "v2")
		// P is back on L5, so T went back to L4, the level it held
		// before its last move.
		if _, level := liveTable(db, tnum); level != version.NumLevels-3 {
			t.Fatalf("T is on L%d after the heal, want L%d", level, version.NumLevels-3)
		}
		if db.m.tablesQuarantined.Value() != 1 {
			t.Fatal("the corrupt successor was not quarantined")
		}
	})
	t.Run("l0", func(t *testing.T) {
		db, fs, tl := openRetaining(t, SyncNobLSM)
		flush := func(kv ...string) {
			for i := 0; i < len(kv); i += 2 {
				mustPut(t, db, tl, kv[i], kv[i+1])
			}
			flushMemtable(t, db, tl)
		}
		// {a} and {x} on L2, then {a} and {x} on L1 above them, then
		// P{a, c-tombstone} on L0 above the L1 {a}.
		flush("a", "v0")
		flush("x", "v0")
		flush("a", "v1")
		flush("x", "v1")
		mustPut(t, db, tl, "a", "v2")
		if err := db.Delete(tl, []byte("c")); err != nil {
			t.Fatal(err)
		}
		flushMemtable(t, db, tl)
		if v := db.Version(); len(v.Files[0]) != 1 || len(v.Files[1]) != 2 || len(v.Files[2]) != 2 {
			t.Fatalf("levels before the merge: %v", v.Files)
		}
		// P merges with L1's {a} into S{a}: nothing deeper holds c,
		// so the tombstone goes.
		compactFirstL0(t, db)
		s := db.Version().Files[1][0]
		// T{c, x} stays on L0 above L1's {x} and merges with it into
		// an L1 table beside S, inside P's range.
		flush("c", "v3", "x", "v3")
		compactFirstL0(t, db)
		if got := db.HealableSuccessors(); !slices.Contains(got, s.Number) {
			t.Fatalf("HealableSuccessors = %v, want %d among them", got, s.Number)
		}
		if v, err := corruptAndGet(t, db, fs, tl, s.Number, "a"); err != nil || string(v) != "v2" {
			t.Fatalf("Get(a) through the corrupt successor = %q, %v", v, err)
		}
		mustGet(t, db, tl, "c", "v3")
		mustGet(t, db, tl, "x", "v3")
	})
}

// TestHealRefused corrupts a table no heal may roll back. The read
// must surface sstable.ErrCorrupt and nothing may be quarantined.
func TestHealRefused(t *testing.T) {
	refused := func(t *testing.T, db *DB, fs *ext4.FS, tl *vclock.Timeline, num uint64, key string) {
		t.Helper()
		if _, err := corruptAndGet(t, db, fs, tl, num, key); !errors.Is(err, sstable.ErrCorrupt) {
			t.Fatalf("Get(%s) through corrupt table %d = %v, want ErrCorrupt", key, num, err)
		}
		if got := db.m.tablesQuarantined.Value(); got != 0 {
			t.Fatalf("%d tables quarantined", got)
		}
		for _, name := range fs.List(tl) {
			if strings.HasSuffix(name, ".corrupt") {
				t.Fatalf("%s quarantined", name)
			}
		}
	}
	t.Run("resolved", func(t *testing.T) {
		db, fs, tl := openRetaining(t, SyncNobLSM)
		s := tombstoneMerge(t, db, tl)
		fs.ForceCommit(tl)
		db.Tracker().Poll(tl)
		if n := db.Tracker().PendingDeps(); n != 0 {
			t.Fatalf("%d dependencies pending after a poll past the commit", n)
		}
		refused(t, db, fs, tl, s, "a")
	})
	t.Run("flush", func(t *testing.T) {
		db, fs, tl := openRetaining(t, SyncNobLSM)
		// {a} on L2, then on L1, then on L0: the last flush stops above
		// the L1 table it overlaps.
		for _, v := range []string{"v0", "v1", "v2"} {
			mustPut(t, db, tl, "a", v)
			flushMemtable(t, db, tl)
		}
		l0 := db.Version().Files[0]
		if len(l0) != 1 {
			t.Fatalf("L0 holds %d tables, want the last flush's", len(l0))
		}
		refused(t, db, fs, tl, l0[0].Number, "a")
	})
	t.Run("syncall", func(t *testing.T) {
		db, fs, tl := openRetaining(t, SyncAll)
		refused(t, db, fs, tl, tombstoneMerge(t, db, tl), "a")
	})
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
	// compaction leaves behind a currently-healable successor.
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
				candMeta, _ = liveTable(db, candidate)
			}
			if candidate != 0 {
				break
			}
		}
	}
	if candidate == 0 {
		t.Fatal("no healable successor after workload; grow the write count")
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
	ctl := vfs.NewFaultFS(fs, 1)
	opts := smallOpts(SyncAll)
	opts.AsyncCompaction = async
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ctl, opts)
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

// TestCompactRangeMeetsFaultsLikeTheWorkLoop arms one fault inside a
// manual compaction's own merge and checks that CompactRange meets it
// through the failure rule, as the work loop does. The store is a
// NobLSM one whose shadows are retained, holding 50 keys written three
// times: the first two rounds settled by CompactRange (so the second
// round's merge left one healable successor on the last level and the
// work loop nothing pending), the third round still in the memtable
// when the fault is armed.
func TestCompactRangeMeetsFaultsLikeTheWorkLoop(t *testing.T) {
	cases := []struct {
		name string
		arm  func(t *testing.T, db *DB, fs *ext4.FS, ctl *vfs.FaultFS, tl *vclock.Timeline)
		// injected is the error CompactRange must return, nil for none.
		injected error
		// transient and quarantined are the rises of
		// engine.bg.transient_errors and engine.tables_quarantined.
		transient, quarantined int64
	}{
		{
			name: "transient read",
			arm: func(t *testing.T, db *DB, fs *ext4.FS, ctl *vfs.FaultFS, tl *vclock.Timeline) {
				ctl.Trigger(vfs.ClassTable, vfs.OpRead, vfs.KindError, true)
			},
			transient: 1,
		},
		{
			name: "corrupt successor",
			arm: func(t *testing.T, db *DB, fs *ext4.FS, ctl *vfs.FaultFS, tl *vclock.Timeline) {
				succ := db.HealableSuccessors()
				if len(succ) != 1 {
					t.Fatalf("healable successors %v, want the second round's one", succ)
				}
				if err := fs.CorruptAt(TableName(succ[0]), 0); err != nil {
					t.Fatal(err)
				}
				db.EvictTable(tl, succ[0])
			},
			quarantined: 1,
		},
		{
			name: "permanent read",
			arm: func(t *testing.T, db *DB, fs *ext4.FS, ctl *vfs.FaultFS, tl *vclock.Timeline) {
				ctl.Trigger(vfs.ClassTable, vfs.OpRead, vfs.KindError, false)
			},
			injected: vfs.ErrInjected,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := ext4.New(smallFSConfig(), smallDevice())
			ctl := vfs.NewFaultFS(fs, 1)
			opts := smallOpts(SyncNobLSM)
			opts.PollInterval = vclock.Duration(1) << 50
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, ctl, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(tl)
			put := func(round int) {
				for i := range 50 {
					mustPut(t, db, tl, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", round))
				}
			}
			put(0)
			compactAll(t, db, tl)
			put(1)
			compactAll(t, db, tl)
			put(2)
			transient, quarantined := db.m.bgTransientErrors.Value(), db.m.tablesQuarantined.Value()
			tc.arm(t, db, fs, ctl, tl)

			err = db.CompactRange(tl, nil, nil)
			if got := db.m.bgTransientErrors.Value() - transient; got != int64(tc.transient) {
				t.Errorf("engine.bg.transient_errors rose by %d, want %d", got, tc.transient)
			}
			if got := db.m.tablesQuarantined.Value() - quarantined; got != int64(tc.quarantined) {
				t.Errorf("engine.tables_quarantined rose by %d, want %d", got, tc.quarantined)
			}
			if tc.injected == nil {
				if err != nil {
					t.Fatalf("CompactRange = %v, want nil", err)
				}
				if db.ReadOnly() {
					t.Fatalf("read-only after an absorbed fault: %v", db.BackgroundError())
				}
				v := db.Version()
				for level := range version.NumLevels - 1 {
					if len(v.Files[level]) > 0 {
						t.Fatalf("CompactRange left %d tables on L%d", len(v.Files[level]), level)
					}
				}
			} else {
				if !errors.Is(err, tc.injected) {
					t.Fatalf("CompactRange = %v, want %v", err, tc.injected)
				}
				if !db.ReadOnly() || !errors.Is(db.BackgroundError(), tc.injected) {
					t.Fatalf("ReadOnly() = %v with background error %v, want read-only on %v",
						db.ReadOnly(), db.BackgroundError(), tc.injected)
				}
			}
			for i := range 50 {
				mustGet(t, db, tl, fmt.Sprintf("k%03d", i), "v2")
			}
		})
	}
}

// TestWALFailureBudget pins the one failure path outside the failure
// rule: a failed WAL append cannot run again in place, so it fails its
// own write alone, poisons the log for the next write to rotate, and
// only bgMaxRetries+1 consecutive failed appends make the store
// read-only.
func TestWALFailureBudget(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	ctl := vfs.NewFaultFS(fs, 1)
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ctl, smallOpts(SyncNobLSM))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	mustPut(t, db, tl, "before", "v")

	ctl.Trigger(vfs.ClassWAL, vfs.OpWrite, vfs.KindError, true)
	if err := db.Put(tl, []byte("failed"), []byte("v")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Put over a failing append = %v, want the injected fault", err)
	}
	rotations := db.m.walPoisonRotations.Value()
	mustPut(t, db, tl, "after", "v")
	if got := db.m.walPoisonRotations.Value() - rotations; got != 1 {
		t.Fatalf("engine.wal.poison_rotations rose by %d on the next write, want 1", got)
	}
	mustGet(t, db, tl, "before", "v")
	mustGet(t, db, tl, "after", "v")
	if _, err := db.Get(tl, []byte("failed")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(failed) = %v, want ErrNotFound", err)
	}
	if db.ReadOnly() {
		t.Fatal("read-only after one failed append")
	}

	ctl.AddRule(vfs.Rule{Class: vfs.ClassWAL, Op: vfs.OpWrite, Kind: vfs.KindError, Transient: true})
	for i := range bgMaxRetries + 1 {
		if db.ReadOnly() {
			t.Fatalf("read-only after %d consecutive failed appends, want %d", i, bgMaxRetries+1)
		}
		if err := db.Put(tl, []byte("k"), []byte("v")); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("Put %d over a failing append = %v, want the injected fault", i, err)
		}
	}
	if !db.ReadOnly() || !errors.Is(db.BackgroundError(), vfs.ErrInjected) {
		t.Fatalf("ReadOnly() = %v with background error %v after %d failed appends", db.ReadOnly(), db.BackgroundError(), bgMaxRetries+1)
	}
	if err := db.Put(tl, []byte("k"), []byte("v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on a read-only store = %v, want ErrReadOnly", err)
	}
	mustGet(t, db, tl, "after", "v")
}
