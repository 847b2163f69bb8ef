package noblsm

// This file regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark drives the experiment
// harness at a scaled operation count (flag-free; the cmd/ tools
// expose flags for larger runs) and reports the paper's metric —
// virtual µs per operation — as the custom metric "vus/op", alongside
// the sync counters where the paper tabulates them. Wall-clock ns/op
// is meaningless here (the stack runs in virtual time); read vus/op.
//
// Mapping:
//
//	BenchmarkFig2aWriteStrategies  — Figure 2a (Async/Direct/Sync)
//	BenchmarkFig2bSyncImpact       — Figure 2b (table size × syncs)
//	BenchmarkFig4aFillrandom       — Figure 4a
//	BenchmarkFig4bOverwrite        — Figure 4b
//	BenchmarkFig4cReadseq          — Figure 4c
//	BenchmarkFig4dReadrandom       — Figure 4d
//	BenchmarkTable1SyncCounts      — Table 1
//	BenchmarkFig5aYCSBSingle       — Figure 5a (1 thread)
//	BenchmarkFig5bYCSBFour         — Figure 5b (4 threads)
//	BenchmarkConsistencyPowerCut   — Section 5.2 consistency test
//	BenchmarkAblation*             — design-choice ablations (DESIGN.md §5)

import (
	"fmt"
	"testing"

	"noblsm/internal/dbbench"
	"noblsm/internal/harness"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
)

const (
	benchOps     = 30_000 // per workload phase (paper: 10M)
	benchRecords = 30_000 // YCSB load size (paper: 50M)
	benchSeed    = 42
)

// benchValueSizes are the paper's Figure 4 x-axis points. Benchmarks
// run the 1 KB point by default and all five under -benchtime with
// the full suite; keeping one size per run keeps `go test -bench=.`
// minutes-fast while the cmd tools sweep everything.
var benchValueSizes = []int{1024}

func BenchmarkFig2aWriteStrategies(b *testing.B) {
	for _, totalMB := range []int64{256, 512} { // scaled 4 GB / 8 GB
		b.Run(fmt.Sprintf("total=%dMB", totalMB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := harness.RunFig2a(totalMB<<20, 2<<20)
				for _, r := range rows {
					b.ReportMetric(r.Elapsed.Seconds(), "vsec_"+r.Strategy)
				}
			}
		})
	}
}

func BenchmarkFig2bSyncImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig2b(benchOps, 1024, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			mode := "nosync"
			if r.Synced {
				mode = "sync"
			}
			b.ReportMetric(r.Elapsed.Seconds(),
				fmt.Sprintf("vsec_%s_%dMB_%s", r.Workload, r.PaperTable>>20, mode))
		}
	}
}

// benchFig4 runs the db_bench chain for every variant and reports the
// requested workload's µs/op per variant.
func benchFig4(b *testing.B, workload string) {
	for _, size := range benchValueSizes {
		b.Run(fmt.Sprintf("value=%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := harness.RunFig4(policy.All, benchOps, size, 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Workload == workload {
						b.ReportMetric(r.Result.MicrosPerOp, "vus_"+string(r.Variant))
					}
				}
			}
		})
	}
}

func BenchmarkFig4aFillrandom(b *testing.B) { benchFig4(b, dbbench.FillRandom) }
func BenchmarkFig4bOverwrite(b *testing.B)  { benchFig4(b, dbbench.Overwrite) }
func BenchmarkFig4cReadseq(b *testing.B)    { benchFig4(b, dbbench.ReadSeq) }
func BenchmarkFig4dReadrandom(b *testing.B) { benchFig4(b, dbbench.ReadRandom) }

func BenchmarkTable1SyncCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunTable1(policy.All, benchOps, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Syncs), "syncs_"+string(r.Variant))
			b.ReportMetric(float64(r.BytesSynced)/(1<<20), "syncedMB_"+string(r.Variant))
		}
	}
}

func benchFig5(b *testing.B, threads int) {
	// One representative write-heavy and one read-heavy phase per
	// variant keep the benchmark minutes-fast; cmd/ycsbbench runs the
	// full eight-phase sequence.
	for i := 0; i < b.N; i++ {
		for _, v := range []policy.Variant{policy.LevelDB, policy.BoLT, policy.NobLSM} {
			rows, err := harness.RunFig5(v, benchRecords, benchOps, 1024, threads, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if r.Phase == "Load-A" || r.Phase == "A" || r.Phase == "C" {
					b.ReportMetric(r.Result.MicrosPerOp, fmt.Sprintf("vus_%s_%s", r.Variant, r.Phase))
				}
			}
		}
	}
}

func BenchmarkFig5aYCSBSingle(b *testing.B) { benchFig5(b, 1) }
func BenchmarkFig5bYCSBFour(b *testing.B)   { benchFig5(b, 4) }

func BenchmarkConsistencyPowerCut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, v := range []policy.Variant{policy.LevelDB, policy.NobLSM} {
			res, err := harness.RunConsistencyTest(v, benchOps, 1024, benchOps*3/4, benchSeed+int64(i))
			if err != nil {
				b.Fatalf("%v failed the power-cut test: %v", v, err)
			}
			b.ReportMetric(float64(res.KeysLost), "lost_"+string(v))
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationPollInterval sweeps NobLSM's is_committed polling
// cadence relative to the journal commit interval. The paper matches
// the two at 5 s; polling faster burns syscalls without observing new
// commits, polling slower retains shadow files longer.
func BenchmarkAblationPollInterval(b *testing.B) {
	base := harness.ScaledOptions(benchOps, 1024, harness.PaperTable64MB)
	commit := base.PollInterval
	for _, mult := range []struct {
		name string
		m    vclock.Duration
		d    vclock.Duration
	}{
		{"poll=commit/5", 1, 5},
		{"poll=commit", 1, 1},
		{"poll=5xcommit", 5, 1},
	} {
		b.Run(mult.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := base
				o.PollInterval = commit * mult.m / mult.d
				tl := vclock.NewTimeline(0)
				st, err := harness.NewStoreWithCommit(tl, policy.NobLSM, o, commit)
				if err != nil {
					b.Fatal(err)
				}
				res, err := harness.RunDBBench(st, tl.Now(), dbbench.FillRandom, benchOps, 1024, 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MicrosPerOp, "vus/op")
				b.ReportMetric(float64(res.Counters["tracker.syscall_checks"]), "is_committed_calls")
				b.ReportMetric(float64(res.Counters["tracker.resolved"]), "deps_resolved")
			}
		})
	}
}

// BenchmarkAblationSyncMinor toggles NobLSM's one remaining sync (the
// L0 table of a minor compaction). Without it the design degenerates
// to the volatile store: faster, but the WAL deletion is no longer
// anchored to a durable L0 table.
func BenchmarkAblationSyncMinor(b *testing.B) {
	for _, v := range []policy.Variant{policy.NobLSM, policy.Volatile} {
		b.Run(string(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tl := vclock.NewTimeline(0)
				st, err := harness.NewStore(tl, v, harness.ScaledOptions(benchOps, 1024, harness.PaperTable64MB))
				if err != nil {
					b.Fatal(err)
				}
				res, err := harness.RunDBBench(st, tl.Now(), dbbench.FillRandom, benchOps, 1024, 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MicrosPerOp, "vus/op")
				b.ReportMetric(float64(res.Syncs), "syncs")
			}
		})
	}
}

// BenchmarkAblationTableSize sweeps the SSTable size for LevelDB and
// NobLSM (the Section 3 observation: large tables alone cannot remove
// the sync cost).
func BenchmarkAblationTableSize(b *testing.B) {
	for _, paperTable := range []int64{harness.PaperTable2MB, 16 << 20, harness.PaperTable64MB} {
		for _, v := range []policy.Variant{policy.LevelDB, policy.NobLSM} {
			b.Run(fmt.Sprintf("%s/table=%dMB", v, paperTable>>20), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tl := vclock.NewTimeline(0)
					st, err := harness.NewStore(tl, v, harness.ScaledOptions(benchOps, 1024, paperTable))
					if err != nil {
						b.Fatal(err)
					}
					res, err := harness.RunDBBench(st, tl.Now(), dbbench.FillRandom, benchOps, 1024, 1, benchSeed)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.MicrosPerOp, "vus/op")
				}
			})
		}
	}
}
