package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"noblsm/internal/dbbench"
	"noblsm/internal/harness"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// This file implements the observed run mode: one workload across the
// variants, each on a stack that publishes into a shared metrics
// registry and an event ring. The run prints the latency table,
// -metrics-json dumps machine-readable per-variant metrics, and
// -trace writes a single Chrome trace_event file with one process per
// variant so Perfetto shows the variants' virtual timelines side by
// side.

// runLatency summarizes the per-op latency distribution. MaxUs is the
// exact largest recorded latency, not a bucket bound.
type runLatency struct {
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// runStalls itemizes stall time by cause, in virtual nanoseconds.
type runStalls struct {
	SlowdownCount int64 `json:"slowdown_count"`
	SlowdownNs    int64 `json:"slowdown_ns"`
	RotationNs    int64 `json:"rotation_ns"`
	SyncNs        int64 `json:"ext4_sync_ns"`
	ThrottleNs    int64 `json:"ext4_throttle_ns"`
	BarrierNs     int64 `json:"ext4_barrier_ns"`
}

// runCompaction summarizes compaction volume.
type runCompaction struct {
	Minor        int64 `json:"minor"`
	Major        int64 `json:"major"`
	TrivialMoves int64 `json:"trivial_moves"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// runFaults reports the -faults plane: what was injected and how the
// engine absorbed it.
type runFaults struct {
	Injected     int64 `json:"injected"`
	Errors       int64 `json:"errors"`
	ShortWrites  int64 `json:"short_writes"`
	TornWrites   int64 `json:"torn_writes"`
	BitFlips     int64 `json:"bit_flips"`
	ReadBitFlips int64 `json:"read_bit_flips"`
	SyncErrors   int64 `json:"sync_errors"`
	ReadRetries  int64 `json:"read_retries"`
	ReadsHealed  int64 `json:"reads_healed"`
	Quarantined  int64 `json:"tables_quarantined"`
	BgTransient  int64 `json:"bg_transient_errors"`
	ReadOnly     bool  `json:"read_only"`
}

// runMetrics is one variant's entry in the -metrics-json document.
type runMetrics struct {
	Variant        string        `json:"variant"`
	Workload       string        `json:"workload"`
	Ops            int64         `json:"ops"`
	ValueSize      int           `json:"value_size"`
	Threads        int           `json:"threads"`
	ElapsedSeconds float64       `json:"elapsed_virtual_seconds"`
	ThroughputOps  float64       `json:"throughput_ops_per_sec"`
	MicrosPerOp    float64       `json:"micros_per_op"`
	Latency        *runLatency   `json:"latency,omitempty"`
	Stalls         runStalls     `json:"stalls"`
	Compaction     runCompaction `json:"compaction"`
	Syncs          int64         `json:"syncs"`
	BytesSynced    int64         `json:"bytes_synced"`
	TraceEvents    int           `json:"trace_events,omitempty"`
	TraceDropped   uint64        `json:"trace_dropped,omitempty"`
	Faults         *runFaults    `json:"faults,omitempty"`
	// MaxStallUs and DroppedWindows are populated when -telemetry (or
	// -listen) armed the attribution plane.
	MaxStallUs     float64      `json:"max_stall_us,omitempty"`
	DroppedWindows uint64       `json:"dropped_windows,omitempty"`
	Registry       obs.Snapshot `json:"registry"`
}

// runDocument is the top-level -metrics-json shape.
type runDocument struct {
	Workload string       `json:"workload"`
	Ops      int64        `json:"ops"`
	Variants []runMetrics `json:"variants"`
}

// runValueSize picks the value size for -run: the single -values
// entry if exactly one was given, else the paper's headline 1 KB.
func runValueSize() int {
	sizes := valueSizes()
	if len(sizes) == 1 {
		return sizes[0]
	}
	return 1024
}

// runVariants resolves -variants, defaulting to all systems.
func runVariants() []policy.Variant {
	if *variantsFlag == "" {
		return policy.All
	}
	byName := map[string]policy.Variant{}
	for _, v := range policy.All {
		byName[strings.ToLower(string(v))] = v
	}
	var out []policy.Variant
	for _, part := range strings.Split(*variantsFlag, ",") {
		v, ok := byName[strings.ToLower(strings.TrimSpace(part))]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown variant %q (have %v)\n", part, policy.All)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func validRunWorkload(w string) bool {
	switch w {
	case dbbench.FillSeq, dbbench.FillRandom, dbbench.Overwrite,
		dbbench.ReadSeq, dbbench.ReadRandom:
		return true
	}
	return false
}

// runObserved executes the workload on every requested variant with
// full observability and emits the requested artifacts.
func runObserved(workload string) {
	if !validRunWorkload(workload) {
		fmt.Fprintf(os.Stderr, "unknown -run workload %q\n", workload)
		os.Exit(2)
	}
	size := runValueSize()
	variants := runVariants()
	var faultRules []vfs.Rule
	if *faultsFlag != "" {
		var err error
		faultRules, err = vfs.ParseFaultSpec(*faultsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	doc := runDocument{Workload: workload, Ops: *opsFlag}
	exporter := obs.NewChromeExporter()

	// -listen serves the live exposition surface for the duration of
	// the run. The run provisions one stack per variant, so the
	// listener re-reads a shared Exposition that is repointed at each
	// variant's stack as it starts.
	telemetryOn := *telemetryFlag || *listenFlag != ""
	var (
		expoMu sync.Mutex
		expo   obs.Exposition
	)
	if *listenFlag != "" {
		srv, addr, err := obs.ServeDynamic(*listenFlag, func() obs.Exposition {
			expoMu.Lock()
			defer expoMu.Unlock()
			return expo
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry listening on http://%s/ (endpoints: /metrics /stats /trace /doctor /debug/pprof/)\n", addr)
	}

	fmt.Printf("\nObserved %s: %d ops, %dB values, %d thread(s)\n",
		workload, *opsFlag, size, *threads)
	fmt.Printf("%-14s %10s %12s %10s %10s %10s %10s\n",
		"Variant", "µs/op", "ops/sec", "p50µs", "p99µs", "p999µs", "maxµs")

	for i, v := range variants {
		tl := vclock.NewTimeline(0)
		tr := obs.NewTracer(obs.DefaultTraceEvents)
		base := harness.ScaledOptions(*opsFlag, size, harness.PaperTable64MB)
		base.GovernorEnabled = *governorFlag
		sink := obs.Sink{Trace: tr}
		if telemetryOn {
			sink.Metrics = obs.NewRegistry()
			// One window per journal-commit interval: the scaled run
			// sees the same ~150 windows the paper's run does.
			sink.Telemetry = obs.NewTelemetry(sink.Metrics, base.PollInterval, 0)
		}
		st, err := harness.NewStoreFaulted(tl, v, base, base.PollInterval,
			sink, *seed, faultRules)
		if err != nil {
			fatal(err)
		}
		expoMu.Lock()
		expo = st.Exposition()
		expoMu.Unlock()
		now := tl.Now()
		if workload == dbbench.ReadSeq || workload == dbbench.ReadRandom {
			// Read workloads measure an already-filled store, as
			// db_bench chains fillrandom before the read phases.
			fill, err := harness.RunDBBench(st, now, dbbench.FillRandom, *opsFlag, size, *threads, *seed)
			if err != nil {
				fatal(err)
			}
			now = now.Add(fill.Elapsed)
			st.ResetCounters()
		}
		res, err := harness.RunDBBench(st, now, workload, *opsFlag, size, *threads, *seed)
		if err != nil {
			fatal(err)
		}

		snap := st.Metrics.Snapshot()
		m := runMetrics{
			Variant:        string(v),
			Workload:       workload,
			Ops:            res.Ops,
			ValueSize:      size,
			Threads:        *threads,
			ElapsedSeconds: res.Elapsed.Seconds(),
			MicrosPerOp:    res.MicrosPerOp,
			Stalls: runStalls{
				SlowdownCount: snap.Counters["engine.stall.slowdown_count"],
				SlowdownNs:    snap.Counters["engine.stall.slowdown_ns"],
				RotationNs:    snap.Counters["engine.stall.rotation_ns"],
				SyncNs:        int64(res.FS.SyncStall),
				ThrottleNs:    int64(res.FS.ThrottleStall),
				BarrierNs:     int64(res.FS.BarrierStall),
			},
			Compaction: runCompaction{
				Minor:        snap.Counters["engine.compactions.minor"],
				Major:        snap.Counters["engine.compactions.major"],
				TrivialMoves: snap.Counters["engine.compactions.trivial_moves"],
				BytesRead:    snap.Counters["compaction.bytes_read"],
				BytesWritten: snap.Counters["compaction.bytes_written"],
			},
			Syncs:        res.Syncs,
			BytesSynced:  res.BytesSynced,
			TraceEvents:  tr.Len(),
			TraceDropped: tr.Dropped(),
			Registry:     snap,
		}
		if res.Elapsed > 0 {
			m.ThroughputOps = float64(res.Ops) / res.Elapsed.Seconds()
		}
		if tel := st.Telemetry; tel != nil {
			m.MaxStallUs = tel.Series.MaxStall().Microseconds()
			m.DroppedWindows = tel.Series.Dropped()
		}
		lat := res.Latency
		if lat.Count() > 0 {
			m.Latency = &runLatency{
				MeanUs: lat.Mean().Microseconds(),
				P50Us:  lat.Percentile(50).Microseconds(),
				P99Us:  lat.Percentile(99).Microseconds(),
				P999Us: lat.Percentile(99.9).Microseconds(),
				MaxUs:  lat.Max().Microseconds(),
			}
			fmt.Printf("%-14s %10.2f %12.0f %10.1f %10.1f %10.1f %10.1f\n",
				v, m.MicrosPerOp, m.ThroughputOps,
				m.Latency.P50Us, m.Latency.P99Us, m.Latency.P999Us, m.Latency.MaxUs)
		} else {
			fmt.Printf("%-14s %10.2f %12.0f %10s %10s %10s %10s\n",
				v, m.MicrosPerOp, m.ThroughputOps, "-", "-", "-", "-")
		}
		if st.Faults != nil {
			fs := st.Faults.Stats()
			m.Faults = &runFaults{
				Injected:     fs.Injected,
				Errors:       fs.Errors,
				ShortWrites:  fs.ShortWrites,
				TornWrites:   fs.TornWrites,
				BitFlips:     fs.BitFlips,
				ReadBitFlips: fs.ReadBitFlips,
				SyncErrors:   fs.SyncErrors,
				ReadRetries:  snap.Counters["engine.read_retries"],
				ReadsHealed:  snap.Counters["engine.reads_healed"],
				Quarantined:  snap.Counters["engine.tables_quarantined"],
				BgTransient:  snap.Counters["engine.bg.transient_errors"],
				ReadOnly:     st.DB.ReadOnly(),
			}
			fmt.Printf("%-14s faults injected=%d errors=%d short=%d torn=%d sync=%d | retries=%d healed=%d quarantined=%d bg_transient=%d read_only=%v\n",
				"", m.Faults.Injected, m.Faults.Errors, m.Faults.ShortWrites,
				m.Faults.TornWrites, m.Faults.SyncErrors, m.Faults.ReadRetries,
				m.Faults.ReadsHealed, m.Faults.Quarantined, m.Faults.BgTransient,
				m.Faults.ReadOnly)
		}
		doc.Variants = append(doc.Variants, m)
		exporter.AddProcess(i+1, string(v), tr)
	}

	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("\nmetrics written to %s\n", *metricsJSON)
	}
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fatal(err)
		}
		if err := exporter.Write(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceFlag)
	}
}
