// Command ycsbbench regenerates the paper's macro-benchmark results:
// Figure 5a (YCSB, single thread) and Figure 5b (four threads). The
// phases run in the paper's recommended order — Load-A, A, B, C, F, D,
// Load-E, E — with the Load phases clearing the data set.
//
// Usage:
//
//	ycsbbench -threads 1                 # Figure 5a
//	ycsbbench -threads 4                 # Figure 5b
//	ycsbbench -records 200000 -ops 50000 # scale (paper: 50M / 10M)
//	ycsbbench -listen :8080              # live /metrics, /stats, /doctor
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"noblsm/internal/harness"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
)

var (
	records   = flag.Int64("records", 100_000, "records per load phase (paper: 50M)")
	ops       = flag.Int64("ops", 20_000, "requests per workload phase (paper: 10M)")
	threads   = flag.Int("threads", 1, "client threads (paper: 1 for Fig 5a, 4 for Fig 5b)")
	valueSize = flag.Int("value", 1024, "value size in bytes")
	seed      = flag.Int64("seed", 42, "workload seed")

	telemetry = flag.Bool("telemetry", false, "enable per-op latency attribution and the stall ledger (implied by -listen)")
	listen    = flag.String("listen", "", "serve live telemetry (/metrics, /stats, /doctor, /debug/pprof) on this address while the sequence runs, e.g. :8080")
)

func main() {
	flag.Parse()
	if *records < 1 || *ops < 1 || *threads < 1 || *valueSize < 1 {
		fmt.Fprintln(os.Stderr, "-records, -ops, -threads and -value must be positive")
		os.Exit(2)
	}
	telemetryOn := *telemetry || *listen != ""
	var (
		expoMu sync.Mutex
		expo   obs.Exposition
	)
	if *listen != "" {
		srv, addr, err := obs.ServeDynamic(*listen, func() obs.Exposition {
			expoMu.Lock()
			defer expoMu.Unlock()
			return expo
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry listening on http://%s/\n", addr)
	}
	fig := "5a"
	if *threads > 1 {
		fig = "5b"
	}
	fmt.Printf("\nFigure %s: YCSB, time per operation (µs), %d records / %d ops, %d thread(s)\n",
		fig, *records, *ops, *threads)
	fmt.Printf("%-14s", "Variant")
	for _, p := range harness.YCSBPhases {
		fmt.Printf("%9s", p)
	}
	fmt.Println()
	for _, v := range policy.All {
		var sink obs.Sink
		if telemetryOn {
			sink.Metrics = obs.NewRegistry()
			sink.Telemetry = obs.NewTelemetry(sink.Metrics, 0, 0)
		}
		onStore := func(st *harness.Store) {
			expoMu.Lock()
			expo = st.Exposition()
			expoMu.Unlock()
		}
		rows, err := harness.RunFig5Observed(v, *records, *ops, *valueSize, *threads, *seed, sink, onStore)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-14s", v)
		for _, r := range rows {
			fmt.Printf("%9.2f", r.Result.MicrosPerOp)
		}
		fmt.Println()
	}
}
