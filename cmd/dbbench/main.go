// Command dbbench regenerates the paper's micro-benchmark results:
// Figures 4a–4d (db_bench across seven LSM-tree variants and value
// sizes 256 B–4 KB), Table 1 (sync counts), and Figure 2b (SSTable
// size × sync impact).
//
// Usage:
//
//	dbbench -fig 4a            # one figure: 4a|4b|4c|4d
//	dbbench -fig 4             # all four db_bench figures
//	dbbench -table 1           # Table 1
//	dbbench -fig 2b            # Figure 2b
//	dbbench -ops 100000        # scale (paper: 10000000)
//
// Observed single-workload runs emit machine-readable metrics and a
// Chrome trace_event file (open in chrome://tracing or Perfetto):
//
//	dbbench -run fillrandom -metrics-json run.json -trace run.trace.json
//
// Observed runs can arm the fault-injection plane to watch the engine
// absorb I/O errors (retries, self-healing reads, read-only fallback):
//
//	dbbench -run readrandom -faults "class=table,op=read,kind=error,transient,p=0.001"
//
// Results are printed as aligned tables with one row per series point,
// in the same units as the paper (µs per operation); latency
// percentiles (p50/p99/max) accompany every measured workload. This is
// the paper's figures only: the repository's performance is measured by
// the benchmark in bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"noblsm/internal/dbbench"
	"noblsm/internal/harness"
	"noblsm/internal/histogram"
	"noblsm/internal/policy"
)

var (
	figFlag    = flag.String("fig", "", "figure to regenerate: 2b, 4, 4a, 4b, 4c or 4d")
	tableFlag  = flag.Int("table", 0, "table to regenerate (1)")
	opsFlag    = flag.Int64("ops", 100_000, "requests per workload (paper: 10M)")
	threads    = flag.Int("threads", 1, "client threads")
	seed       = flag.Int64("seed", 42, "workload seed")
	valuesFlag = flag.String("values", "256,512,1024,2048,4096", "value sizes for figure 4")

	runFlag      = flag.String("run", "", "observed run of one workload across variants: fillseq|fillrandom|overwrite|readseq|readrandom")
	metricsJSON  = flag.String("metrics-json", "", "write per-variant run metrics (throughput, latency percentiles, stall causes, compaction bytes, full registry) as JSON")
	traceFlag    = flag.String("trace", "", "write a Chrome trace_event file of the run (load in Perfetto)")
	variantsFlag = flag.String("variants", "", "comma-separated variant subset for -run (default: all)")
	faultsFlag   = flag.String("faults", "", "arm the fault-injection plane for -run, e.g. \"class=table,op=read,kind=error,transient,p=0.001;class=wal,op=write,kind=short,count=1\" (see internal/vfs.ParseFaultSpec)")

	telemetryFlag = flag.Bool("telemetry", false, "enable per-op latency attribution, the stall ledger and the windowed time-series for -run (implied by -listen)")
	listenFlag    = flag.String("listen", "", "serve live telemetry (/metrics, /stats, /trace, /doctor, /debug/pprof) on this address while -run executes, e.g. :8080 (:0 picks a port)")
	governorFlag  = flag.Bool("governor", false, "enable the admission governor for -run stores")
)

func main() {
	flag.Parse()
	if *runFlag == "" && (*metricsJSON != "" || *traceFlag != "") && *figFlag == "" && *tableFlag == 0 {
		// -metrics-json/-trace without an explicit mode implies an
		// observed fillrandom run.
		*runFlag = dbbench.FillRandom
	}
	if *figFlag == "" && *tableFlag == 0 && *runFlag == "" {
		fmt.Fprintln(os.Stderr, "specify -fig, -table or -run; see -help")
		os.Exit(2)
	}
	if *opsFlag < 1 || *threads < 1 {
		fmt.Fprintln(os.Stderr, "-ops and -threads must be positive")
		os.Exit(2)
	}
	switch {
	case *runFlag != "":
		runObserved(*runFlag)
	case *tableFlag == 1:
		runTable1()
	case *figFlag == "2b":
		runFig2b()
	case *figFlag == "4":
		runFig4All()
	case *figFlag == "4a":
		runFig4(dbbench.FillRandom)
	case *figFlag == "4b":
		runFig4(dbbench.Overwrite)
	case *figFlag == "4c":
		runFig4(dbbench.ReadSeq)
	case *figFlag == "4d":
		runFig4(dbbench.ReadRandom)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q / -table %d\n", *figFlag, *tableFlag)
		os.Exit(2)
	}
}

// fatal reports a failed run and exits; usage errors exit 2 instead.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func valueSizes() []int {
	var out []int
	for _, part := range strings.Split(*valuesFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad -values %q\n", *valuesFlag)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

var figOf = map[string]string{
	dbbench.FillRandom: "4a", dbbench.Overwrite: "4b",
	dbbench.ReadSeq: "4c", dbbench.ReadRandom: "4d",
}

// fig4Cell is one (workload, variant, size) measurement: the mean the
// paper plots plus the latency distribution behind it.
type fig4Cell struct {
	microsPerOp float64
	latency     histogram.Histogram
}

// collectFig4 runs the value-size sweep once and groups results by
// workload → variant → size.
func collectFig4(sizes []int) map[string]map[policy.Variant]map[int]fig4Cell {
	results := map[string]map[policy.Variant]map[int]fig4Cell{}
	for _, w := range dbbench.Workloads {
		results[w] = map[policy.Variant]map[int]fig4Cell{}
		for _, v := range policy.All {
			results[w][v] = map[int]fig4Cell{}
		}
	}
	for _, size := range sizes {
		rows, err := harness.RunFig4(policy.All, *opsFlag, size, *threads, *seed)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			results[r.Workload][r.Variant][size] = fig4Cell{
				microsPerOp: r.Result.MicrosPerOp,
				latency:     r.Result.Latency,
			}
		}
	}
	return results
}

// latencyCell renders "p50/p99/p999/max" in µs, or "-" for phases
// without per-op histograms (readseq iterates rather than issuing
// requests). Max is the exact largest recorded latency, not a bucket
// bound.
func latencyCell(h *histogram.Histogram) string {
	if h.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f/%.1f/%.1f",
		h.Percentile(50).Microseconds(),
		h.Percentile(99).Microseconds(),
		h.Percentile(99.9).Microseconds(),
		h.Max().Microseconds())
}

func printFig4(workload string, sizes []int, table map[policy.Variant]map[int]fig4Cell) {
	fmt.Printf("\nFigure %s: %s, time per operation (µs), %d ops, %d thread(s)\n",
		figOf[workload], workload, *opsFlag, *threads)
	fmt.Printf("%-14s", "Variant")
	for _, s := range sizes {
		fmt.Printf("%10dB", s)
	}
	fmt.Println()
	for _, v := range policy.All {
		fmt.Printf("%-14s", v)
		for _, s := range sizes {
			cell := table[v][s]
			fmt.Printf("%11.2f", cell.microsPerOp)
		}
		fmt.Println()
	}
	// Companion latency table: tail behaviour is where the sync
	// policies differ most (stalls hide behind identical means).
	fmt.Printf("\nLatency p50/p99/p999/max (µs), %s\n", workload)
	fmt.Printf("%-14s", "Variant")
	for _, s := range sizes {
		fmt.Printf("  %24dB", s)
	}
	fmt.Println()
	for _, v := range policy.All {
		fmt.Printf("%-14s", v)
		for _, s := range sizes {
			cell := table[v][s]
			fmt.Printf("  %25s", latencyCell(&cell.latency))
		}
		fmt.Println()
	}
}

// runFig4 prints one of Figures 4a–4d: µs/op per variant × value size.
func runFig4(workload string) {
	sizes := valueSizes()
	printFig4(workload, sizes, collectFig4(sizes)[workload])
}

// runFig4All sweeps the variant × value-size matrix once and prints
// all four figures from it.
func runFig4All() {
	sizes := valueSizes()
	results := collectFig4(sizes)
	for _, w := range dbbench.Workloads {
		printFig4(w, sizes, results[w])
	}
}

func runTable1() {
	fmt.Printf("\nTable 1: syncs and data synced, fillrandom 1KB, %d ops\n", *opsFlag)
	rows, err := harness.RunTable1(policy.All, *opsFlag, *threads, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-14s %12s %14s\n", "LSM-tree", "No. of syncs", "Size synced")
	for _, r := range rows {
		fmt.Printf("%-14s %12d %11.2f MB\n", r.Variant, r.Syncs, float64(r.BytesSynced)/(1<<20))
	}
}

func runFig2b() {
	fmt.Printf("\nFigure 2b: SSTable size and syncs on LevelDB, %d ops, 1KB values\n", *opsFlag)
	rows, err := harness.RunFig2b(*opsFlag, 1024, *threads, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-12s %-12s %-8s %14s\n", "Workload", "Table", "Syncs", "Exec time")
	for _, r := range rows {
		mode := "No-Sync"
		if r.Synced {
			mode = "Sync"
		}
		fmt.Printf("%-12s %-12s %-8s %13.3fs\n",
			r.Workload, fmt.Sprintf("%dMB-class", r.PaperTable>>20), mode, r.Elapsed.Seconds())
	}
}
