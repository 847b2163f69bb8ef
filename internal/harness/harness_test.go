package harness

import (
	"testing"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
	"noblsm/internal/ycsb"
)

const (
	testOps     = 20000
	testThreads = 1
	testSeed    = 42
)

func TestScaledOptionsPreserveEventCounts(t *testing.T) {
	o := ScaledOptions(100_000, 1024, PaperTable64MB)
	// 100k × 1040 B ≈ 104 MB; scale ≈ 100; table ≈ 640 KB.
	if o.TableFileSize < 512<<10 || o.TableFileSize > 768<<10 {
		t.Fatalf("scaled table size %d out of range", o.TableFileSize)
	}
	if o.WriteBufferSize != o.TableFileSize {
		t.Fatal("write buffer must equal table size (paper setup)")
	}
	// The scaled fill performs ~data/buffer ≈ 160 minor compactions,
	// matching the paper's 10 GB / 64 MB.
	minors := (100_000 * 1040) / o.WriteBufferSize
	if minors < 120 || minors > 220 {
		t.Fatalf("scaled run would do %d minors, want ~160", minors)
	}
	// Tiny runs clamp instead of degenerating.
	tiny := ScaledOptions(100, 64, PaperTable2MB)
	if tiny.TableFileSize < 32<<10 {
		t.Fatalf("tiny table size %d below clamp", tiny.TableFileSize)
	}
}

// counter reads one of a registry's counters (a Result's Counters, or
// Registry.Counters) by name; a name the registry does not hold fails
// the test, so a typo cannot read as 0.
func counter(t *testing.T, c map[string]int64, name string) int64 {
	t.Helper()
	v, ok := c[name]
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return v
}

func TestRunDBBenchFillAndRead(t *testing.T) {
	tl := vclock.NewTimeline(0)
	st, err := NewStore(tl, policy.LevelDB, ScaledOptions(testOps, 256, PaperTable64MB))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, testOps, 256, testThreads, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != testOps || res.MicrosPerOp <= 0 {
		t.Fatalf("fill result: %+v", res)
	}
	if res.Syncs == 0 {
		t.Fatal("LevelDB fill performed no syncs")
	}
	rr, err := RunDBBench(st, tl.Now().Add(res.Elapsed), dbbench.ReadRandom, testOps, 256, testThreads, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if gets := counter(t, rr.Counters, "engine.gets"); gets < testOps {
		t.Fatalf("readrandom issued %d gets", gets)
	}
	rs, err := RunDBBench(st, tl.Now().Add(res.Elapsed+rr.Elapsed), dbbench.ReadSeq, testOps, 256, testThreads, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if rs.MicrosPerOp <= 0 {
		t.Fatalf("readseq: %+v", rs)
	}
}

// TestResetCountersLeavesRegistryMonotonic: ResetCounters starts a
// measured phase by recording a mark, not by zeroing the shared
// registry — the ext4 and ssd counters a live /metrics serves beside
// the engine's keep counting up, and a Result holds the phase's own
// share of them.
func TestResetCountersLeavesRegistryMonotonic(t *testing.T) {
	tl := vclock.NewTimeline(0)
	st, err := NewStore(tl, policy.LevelDB, ScaledOptions(testOps, 256, PaperTable64MB))
	if err != nil {
		t.Fatal(err)
	}
	fill, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, testOps, 256, testThreads, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Metrics.Snapshot().Counters
	if before["ext4.syncs"] != fill.Syncs || before["ssd.bytes_written"] == 0 {
		t.Fatalf("after the fill: registry ext4.syncs=%d ssd.bytes_written=%d, result syncs=%d",
			before["ext4.syncs"], before["ssd.bytes_written"], fill.Syncs)
	}
	st.ResetCounters()
	over, err := RunDBBench(st, tl.Now().Add(fill.Elapsed), dbbench.Overwrite, testOps, 256, testThreads, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	after := st.Metrics.Snapshot().Counters
	for _, name := range []string{"ext4.syncs", "ext4.bytes_synced", "ssd.writes", "ssd.bytes_written", "ssd.busy_ns"} {
		if after[name] < before[name] {
			t.Errorf("%s went backwards across ResetCounters: %d -> %d", name, before[name], after[name])
		}
	}
	if over.Syncs == 0 || over.Syncs != after["ext4.syncs"]-before["ext4.syncs"] ||
		over.BytesSynced != after["ext4.bytes_synced"]-before["ext4.bytes_synced"] {
		t.Errorf("overwrite result syncs=%d synced=%d, registry moved by %d and %d",
			over.Syncs, over.BytesSynced, after["ext4.syncs"]-before["ext4.syncs"],
			after["ext4.bytes_synced"]-before["ext4.bytes_synced"])
	}
	for _, name := range []string{"ssd.bytes_written", "engine.puts"} {
		if got, want := counter(t, over.Counters, name), after[name]-before[name]; got != want {
			t.Errorf("overwrite result %s=%d, registry moved by %d", name, got, want)
		}
	}
}

func TestHeadlineShapeNobLSMFasterThanLevelDB(t *testing.T) {
	// The paper's core claim (Fig. 4a): NobLSM cuts fillrandom
	// execution time versus LevelDB substantially, approaching the
	// volatile bound; BoLT lands in between.
	micros := map[policy.Variant]float64{}
	for _, v := range []policy.Variant{policy.LevelDB, policy.BoLT, policy.NobLSM, policy.Volatile} {
		tl := vclock.NewTimeline(0)
		st, err := NewStore(tl, v, ScaledOptions(testOps, 1024, PaperTable64MB))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, testOps, 1024, testThreads, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		micros[v] = res.MicrosPerOp
		t.Logf("%-10s %8.2f µs/op  syncs=%d synced=%dMB stalls(memtable_full=%v l0_slowdown=%v barrier=%v)",
			v, res.MicrosPerOp, res.Syncs, res.BytesSynced>>20,
			vclock.Duration(counter(t, res.Counters, obs.StallMemtableFull.Metric("ns"))),
			vclock.Duration(counter(t, res.Counters, obs.StallL0Slowdown.Metric("ns"))),
			vclock.Duration(counter(t, res.Counters, "ext4.stall.barrier_ns")))
	}
	if micros[policy.NobLSM] >= micros[policy.LevelDB] {
		t.Fatalf("NobLSM (%.2f) not faster than LevelDB (%.2f)", micros[policy.NobLSM], micros[policy.LevelDB])
	}
	reduction := 1 - micros[policy.NobLSM]/micros[policy.LevelDB]
	volBound := 1 - micros[policy.Volatile]/micros[policy.LevelDB]
	t.Logf("NobLSM reduction %.1f%% (volatile bound %.1f%%)", 100*reduction, 100*volBound)
	if reduction < 0.15 {
		t.Fatalf("NobLSM reduction %.1f%% too small to match the paper's ~44%%", 100*reduction)
	}
	if micros[policy.Volatile] > micros[policy.NobLSM]*1.05 {
		t.Fatalf("volatile (%.2f) slower than NobLSM (%.2f)", micros[policy.Volatile], micros[policy.NobLSM])
	}
}

func TestTable1ShapeNobLSMSyncsLeast(t *testing.T) {
	rows, err := RunTable1([]policy.Variant{policy.LevelDB, policy.BoLT, policy.NobLSM}, testOps, testThreads, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	get := func(v policy.Variant) Table1Row {
		for _, r := range rows {
			if r.Variant == v {
				return r
			}
		}
		t.Fatalf("missing row for %v", v)
		return Table1Row{}
	}
	lev, bolt, nob := get(policy.LevelDB), get(policy.BoLT), get(policy.NobLSM)
	t.Logf("LevelDB: %d syncs %dMB; BoLT: %d syncs %dMB; NobLSM: %d syncs %dMB",
		lev.Syncs, lev.BytesSynced>>20, bolt.Syncs, bolt.BytesSynced>>20, nob.Syncs, nob.BytesSynced>>20)
	if !(nob.Syncs < bolt.Syncs && bolt.Syncs < lev.Syncs) {
		t.Fatalf("sync ordering violated: %d / %d / %d", nob.Syncs, bolt.Syncs, lev.Syncs)
	}
	if !(nob.BytesSynced < lev.BytesSynced) {
		t.Fatalf("NobLSM synced more bytes than LevelDB")
	}
	// Paper: NobLSM's sync count ≈ its minor compactions (160 for the
	// full-scale run), 84.9% less than LevelDB's.
	if float64(nob.Syncs) > 0.5*float64(lev.Syncs) {
		t.Fatalf("NobLSM sync reduction too small: %d vs %d", nob.Syncs, lev.Syncs)
	}
}

func TestFig2aShape(t *testing.T) {
	rows := RunFig2a(256<<20, 2<<20)
	byName := map[string]vclock.Duration{}
	for _, r := range rows {
		byName[r.Strategy] = r.Elapsed
		t.Logf("%-6s %6.2fs", r.Strategy, r.Elapsed.Seconds())
	}
	async, direct, sync := byName["Async"], byName["Direct"], byName["Sync"]
	if !(async < direct && direct < sync) {
		t.Fatalf("strategy ordering violated: %v %v %v", async, direct, sync)
	}
	// Paper: Direct ≈ 9.5× Async; Sync ≈ +36.7% over Direct (4 GB).
	if r := float64(direct) / float64(async); r < 4 || r > 30 {
		t.Fatalf("Direct/Async ratio %.1f outside plausible band", r)
	}
	if r := float64(sync)/float64(direct) - 1; r < 0.1 || r > 1.0 {
		t.Fatalf("Sync overhead over Direct %.2f outside plausible band", r)
	}
}

func TestConsistencyShape(t *testing.T) {
	for _, v := range []policy.Variant{policy.LevelDB, policy.NobLSM} {
		res, err := RunConsistencyTest(v, testOps, 1024, testOps*3/4, testSeed)
		if err != nil {
			t.Fatalf("%v failed the power-cut test: %v\n%s", v, err, replay(t))
		}
		t.Logf("%v: survived=%d lost=%d walDrops=%d", v, res.KeysSurvived, res.KeysLost, res.WALRecordsDropped)
		if res.KeysSurvived == 0 {
			t.Fatalf("%v lost everything", v)
		}
	}
}

func TestYCSBPhasesRun(t *testing.T) {
	rows, err := RunFig5(policy.NobLSM, 5000, 4000, 256, 1, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(YCSBPhases) {
		t.Fatalf("got %d phases, want %d", len(rows), len(YCSBPhases))
	}
	for _, r := range rows {
		if r.Result.MicrosPerOp <= 0 {
			t.Fatalf("phase %s has no time: %+v", r.Phase, r.Result)
		}
	}
}

// TestScansReleaseTables: the harness's two scans — YCSB-E's scan op
// and db_bench's readseq — close their iterators. A leaked
// iterator pins its version, and with it every table the version names
// and those tables' page cache, so once the scans end a compaction of
// everything, a commit and a poll must leave no superseded table on
// disk.
func TestScansReleaseTables(t *testing.T) {
	const records, ops, valueSize = 5000, 2000, 256
	for _, c := range []struct {
		name string
		scan func(st *Store, now vclock.Time) (Result, error)
	}{
		{"ycsb-E", func(st *Store, now vclock.Time) (Result, error) {
			return RunYCSB(st, now, ycsb.WorkloadE, records, ops, valueSize, 1, testSeed)
		}},
		{"readseq", func(st *Store, now vclock.Time) (Result, error) {
			return RunDBBench(st, now, dbbench.ReadSeq, records, valueSize, 2, testSeed)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tl := vclock.NewTimeline(0)
			st, err := NewStore(tl, policy.NobLSM, ScaledOptions(records, valueSize, PaperTable64MB))
			if err != nil {
				t.Fatal(err)
			}
			load, err := RunYCSBLoad(st, tl.Now(), "Load-E", records, valueSize, 1, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			tl.WaitUntil(tl.Now().Add(load.Elapsed))
			res, err := c.scan(st, tl.Now())
			if err != nil {
				t.Fatal(err)
			}
			tl.WaitUntil(tl.Now().Add(res.Elapsed))
			tables := func() map[uint64]bool {
				nums := map[uint64]bool{}
				for _, files := range st.DB.Version().Files {
					for _, fm := range files {
						nums[fm.Number] = true
					}
				}
				return nums
			}
			before := tables()
			if len(before) == 0 {
				t.Fatal("the load left no tables")
			}
			if err := st.DB.CompactRange(tl, nil, nil); err != nil {
				t.Fatal(err)
			}
			st.FS.ForceCommit(tl)
			st.DB.Tracker().Poll(tl)
			live := tables()
			for num := range before {
				if name := engine.TableName(num); !live[num] && st.FS.Exists(tl, name) {
					t.Errorf("superseded table %s survived the poll", name)
				}
			}
		})
	}
}

func TestLatencyTailsSeparateVariants(t *testing.T) {
	// The paper's mechanism is a tail phenomenon: most puts are fast
	// in every variant, but LevelDB's sync barriers produce a heavy
	// tail that NobLSM lacks. The medians should be comparable while
	// p99.9 differs sharply.
	tails := map[policy.Variant]vclock.Duration{}
	medians := map[policy.Variant]vclock.Duration{}
	for _, v := range []policy.Variant{policy.LevelDB, policy.NobLSM} {
		tl := vclock.NewTimeline(0)
		st, err := NewStore(tl, v, ScaledOptions(testOps, 1024, PaperTable64MB))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, testOps, 1024, 1, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		tails[v] = res.Latency.Percentile(99.9)
		medians[v] = res.Latency.Percentile(50)
		t.Logf("%-8s median=%v p99=%v p99.9=%v max=%v", v,
			res.Latency.Percentile(50), res.Latency.Percentile(99),
			res.Latency.Percentile(99.9), res.Latency.Max())
	}
	if tails[policy.NobLSM] >= tails[policy.LevelDB] {
		t.Fatalf("NobLSM p99.9 (%v) not below LevelDB's (%v)",
			tails[policy.NobLSM], tails[policy.LevelDB])
	}
}

func TestMultiThreadDriverBalances(t *testing.T) {
	// 8001 leaves a remainder: client 0 issues 2001 operations, which
	// its generator must hold — an exhausted generator hands out key 0.
	for _, ops := range []int64{8000, 8001} {
		tl := vclock.NewTimeline(0)
		st, err := NewStore(tl, policy.NobLSM, ScaledOptions(ops, 256, PaperTable64MB))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, ops, 256, 4, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Threads != 4 || res.Ops != ops {
			t.Fatalf("ops=%d result: %+v", ops, res)
		}
		if puts := counter(t, res.Counters, "engine.puts"); puts != ops {
			t.Fatalf("ops=%d puts = %d", ops, puts)
		}
		want := map[string]bool{}
		for c := int64(0); c < 4; c++ {
			n := ops / 4
			if c == 0 {
				n += ops % 4
			}
			gen := dbbench.NewGenerator(dbbench.FillRandom, n, testSeed+c*7919)
			for k, done := gen.Next(); !done; k, done = gen.Next() {
				want[string(dbbench.Key(k))] = true
			}
		}
		it, err := st.DB.NewIterator(tl)
		if err != nil {
			t.Fatal(err)
		}
		stored := 0
		for it.First(); it.Valid(); it.Next() {
			if !want[string(it.Key())] {
				t.Fatalf("ops=%d: stored key %s is in no client's stream", ops, it.Key())
			}
			stored++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if stored != len(want) {
			t.Fatalf("ops=%d: store holds %d keys, the four streams %d", ops, stored, len(want))
		}
	}
}
