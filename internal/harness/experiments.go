package harness

import (
	"fmt"

	"noblsm/internal/dbbench"
	"noblsm/internal/ext4"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/ycsb"
)

// ---------------------------------------------------------------
// Figure 2a: the cost of write strategies on an SSD (no LSM-tree).
// ---------------------------------------------------------------

// StrategyRow is one bar of Figure 2a.
type StrategyRow struct {
	Strategy string // Async, Direct, Sync
	Total    int64  // bytes written
	Elapsed  vclock.Duration
}

// RunFig2a writes total bytes in fileBytes-sized files with the three
// strategies of Section 3: Async (buffered writes, journal commits in
// the background), Direct (O_DIRECT device writes), and Sync (buffered
// write + fsync per file).
func RunFig2a(total, fileBytes int64) []StrategyRow {
	files := int(total / fileBytes)
	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	var rows []StrategyRow

	// Async: page-cache writes; asynchronous commits absorb the I/O.
	{
		fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
		tl := vclock.NewTimeline(0)
		start := tl.Now()
		for i := 0; i < files; i++ {
			f, _ := fs.Create(tl, fmt.Sprintf("async-%05d", i))
			f.Append(tl, payload)
			f.Close(tl)
		}
		rows = append(rows, StrategyRow{"Async", total, tl.Now().Sub(start)})
	}
	// Direct: every write goes straight to the device and the caller
	// waits for it (O_DIRECT), no barriers.
	{
		dev := ssd.New(ssd.PM883())
		tl := vclock.NewTimeline(0)
		start := tl.Now()
		for i := 0; i < files; i++ {
			done := dev.Write(tl.Now(), fileBytes)
			tl.WaitUntil(done)
		}
		rows = append(rows, StrategyRow{"Direct", total, tl.Now().Sub(start)})
	}
	// Sync: buffered write then fsync per file — device transfer plus
	// a journal commit and flush barrier each time.
	{
		fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
		tl := vclock.NewTimeline(0)
		start := tl.Now()
		for i := 0; i < files; i++ {
			f, _ := fs.Create(tl, fmt.Sprintf("sync-%05d", i))
			f.Append(tl, payload)
			f.Sync(tl)
			f.Close(tl)
		}
		rows = append(rows, StrategyRow{"Sync", total, tl.Now().Sub(start)})
	}
	return rows
}

// ---------------------------------------------------------------
// Figure 2b: SSTable size and syncs on LevelDB.
// ---------------------------------------------------------------

// Fig2bRow is one bar of Figure 2b.
type Fig2bRow struct {
	Workload   string
	PaperTable int64 // the paper-scale SSTable size this models
	Synced     bool
	Elapsed    vclock.Duration
	Result     Result
}

// RunFig2b measures fillrandom and overwrite on LevelDB with syncs
// enabled vs disabled, at both SSTable sizes of Section 3.
func RunFig2b(ops int64, valueSize, threads int, seed int64) ([]Fig2bRow, error) {
	var rows []Fig2bRow
	for _, tableBytes := range []int64{PaperTable2MB, PaperTable64MB} {
		for _, synced := range []bool{true, false} {
			v := policy.LevelDB
			if !synced {
				v = policy.Volatile
			}
			tl := vclock.NewTimeline(0)
			st, err := NewStore(tl, v, ScaledOptions(ops, valueSize, tableBytes))
			if err != nil {
				return nil, err
			}
			now := tl.Now()
			for _, w := range []string{dbbench.FillRandom, dbbench.Overwrite} {
				st.ResetCounters()
				res, err := RunDBBench(st, now, w, ops, valueSize, threads, seed)
				if err != nil {
					return nil, err
				}
				now = now.Add(res.Elapsed)
				rows = append(rows, Fig2bRow{
					Workload: w, PaperTable: tableBytes, Synced: synced,
					Elapsed: res.Elapsed, Result: res,
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------
// Figure 4 + Table 1: db_bench across the seven systems.
// ---------------------------------------------------------------

// Fig4Row is one point of Figures 4a–4d (and, for fillrandom at 1 KB,
// a row of Table 1).
type Fig4Row struct {
	Variant   policy.Variant
	Workload  string
	ValueSize int
	Result    Result
}

// RunFig4 runs the db_bench sequence — fillrandom, overwrite, readseq,
// readrandom — for each system at one value size, mirroring Section
// 5.2 (10 M requests in the paper; ops here is the scaled count).
func RunFig4(variants []policy.Variant, ops int64, valueSize, threads int, seed int64) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, v := range variants {
		tl := vclock.NewTimeline(0)
		st, err := NewStore(tl, v, ScaledOptions(ops, valueSize, PaperTable64MB))
		if err != nil {
			return nil, err
		}
		// The phases run back-to-back on one store, like chained
		// db_bench runs; the clock carries over so compaction debt
		// from a phase affects the next, as on real hardware.
		now := tl.Now()
		for _, w := range dbbench.Workloads {
			st.ResetCounters()
			res, err := RunDBBench(st, now, w, ops, valueSize, threads, seed)
			if err != nil {
				return nil, err
			}
			now = now.Add(res.Elapsed)
			rows = append(rows, Fig4Row{Variant: v, Workload: w, ValueSize: valueSize, Result: res})
		}
	}
	return rows, nil
}

// Table1Row reproduces Table 1: syncs and data synced during
// fillrandom with 1 KB values.
type Table1Row struct {
	Variant     policy.Variant
	Syncs       int64
	BytesSynced int64
}

// RunTable1 collects sync counters for every system on fillrandom.
func RunTable1(variants []policy.Variant, ops int64, threads int, seed int64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, v := range variants {
		tl := vclock.NewTimeline(0)
		st, err := NewStore(tl, v, ScaledOptions(ops, 1024, PaperTable64MB))
		if err != nil {
			return nil, err
		}
		st.ResetCounters()
		res, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, ops, 1024, threads, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Variant: v, Syncs: res.Syncs, BytesSynced: res.BytesSynced})
	}
	return rows, nil
}

// ---------------------------------------------------------------
// Figure 5: YCSB across the seven systems.
// ---------------------------------------------------------------

// Fig5Row is one bar of Figure 5a/5b.
type Fig5Row struct {
	Variant policy.Variant
	Phase   string // Load-A, A, B, C, F, D, Load-E, E
	Threads int
	Result  Result
}

// YCSBPhases is the paper's recommended execution order.
var YCSBPhases = []string{"Load-A", "A", "B", "C", "F", "D", "Load-E", "E"}

// RunFig5 runs the YCSB sequence for one system. records scales the
// paper's 50 M-record loads; ops scales the 10 M-request phases.
func RunFig5(v policy.Variant, records, ops int64, valueSize, threads int, seed int64) ([]Fig5Row, error) {
	return RunFig5Observed(v, records, ops, valueSize, threads, seed, obs.Sink{}, nil)
}

// RunFig5Observed is RunFig5 with an observability sink threaded into
// every store the sequence provisions. The YCSB order rebuilds the
// store at each Load phase, so onStore (when non-nil) is invoked with
// each fresh store — a live exposition endpoint repoints at it.
func RunFig5Observed(v policy.Variant, records, ops int64, valueSize, threads int, seed int64, sink obs.Sink, onStore func(*Store)) ([]Fig5Row, error) {
	var rows []Fig5Row
	run := func(st *Store, now vclock.Time, phase string) (vclock.Time, error) {
		st.ResetCounters()
		var res Result
		var err error
		switch phase {
		case "Load-A", "Load-E":
			res, err = RunYCSBLoad(st, now, phase, records, valueSize, threads, seed)
		default:
			var wl ycsb.Workload
			wl, err = ycsb.ByName(phase)
			if err == nil {
				res, err = RunYCSB(st, now, wl, records, ops, valueSize, threads, seed)
			}
		}
		if err != nil {
			return now, err
		}
		rows = append(rows, Fig5Row{Variant: v, Phase: phase, Threads: threads, Result: res})
		return now.Add(res.Elapsed), nil
	}

	// Load-A clears the data set: fresh store.
	tl := vclock.NewTimeline(0)
	base := ScaledOptions(records, valueSize, PaperTable64MB)
	st, err := NewStoreObserved(tl, v, base, base.PollInterval, sink)
	if err != nil {
		return nil, err
	}
	if onStore != nil {
		onStore(st)
	}
	now := tl.Now()
	for _, phase := range YCSBPhases {
		if phase == "Load-E" {
			// Load-E clears the data set again.
			tl = vclock.NewTimeline(now)
			st, err = NewStoreObserved(tl, v, base, base.PollInterval, sink)
			if err != nil {
				return nil, err
			}
			if onStore != nil {
				onStore(st)
			}
			now = tl.Now()
		}
		if now, err = run(st, now, phase); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------
// Section 5.2 consistency test: sudden power-off.
// ---------------------------------------------------------------

// ConsistencyResult reports one power-cut trial that kept the recovery
// contract (RunConsistencyTest returns an error for one that did not).
type ConsistencyResult struct {
	Variant policy.Variant
	// KeysSurvived and KeysLost count the fill keys after recovery;
	// losses are confined to the unsynced WAL tail.
	KeysSurvived, KeysLost int64
	// WALRecordsDropped counts broken log records observed by
	// recovery (the paper: "some ones in the logs are broken").
	WALRecordsDropped int
}

// RunConsistencyTest emulates `halt -f -p -n` during fillrandom
// (Section 5.2): it cuts power after cutAfter of ops puts, reopens,
// and verifies that KV pairs stored in SSTables are intact — crashCut
// with no lag.
func RunConsistencyTest(v policy.Variant, ops int64, valueSize int, cutAfter int64, seed int64) (ConsistencyResult, error) {
	return crashCut(v, ops, valueSize, cutAfter, seed, 0)
}

// crashCut puts the first cut of ops db_bench fillrandom keys into
// variant v, lets lag pass, cuts power and checks the recovered store
// at the cut's horizon (contract.go); then it cuts power again right
// after recovery and checks once more: recovery's own work must be
// crash-safe. The counts are the first recovery's.
func crashCut(v policy.Variant, ops int64, valueSize int, cut, seed int64, lag vclock.Duration) (res ConsistencyResult, err error) {
	res.Variant = v
	defer func() {
		if err != nil {
			err = fmt.Errorf("crash cut %s, %d of %d ops, seed %d: %w", v, cut, ops, seed, err)
		}
	}()
	base := ScaledOptions(ops, valueSize, PaperTable64MB)
	tl := vclock.NewTimeline(0)
	st, err := newStack(tl, v, base, base.PollInterval, obs.Sink{}, mountPlain, 0, nil)
	if err != nil {
		return res, err
	}
	w := &workload{valueSize: valueSize, gen: dbbench.NewGenerator(dbbench.FillRandom, ops, seed)}
	if err := w.run(tl, st.DB, cut); err != nil {
		return res, err
	}
	tl.Advance(lag)
	h := horizon(tl.Now(), base.PollInterval)
	for crash := 1; crash <= 2; crash++ {
		image, drops, err := w.powerCut(tl, st, h)
		if err != nil {
			return res, fmt.Errorf("crash %d: %w", crash, err)
		}
		if crash == 1 {
			res.KeysSurvived = int64(len(image))
			res.KeysLost = int64(len(w.order) - len(image))
			res.WALRecordsDropped = drops
		}
	}
	return res, nil
}
