package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
)

// TestAttributionConservation is the telemetry plane's core
// correctness check: on a seeded virtual fillrandom (plus a read
// phase), every operation's summed phase durations must equal its
// end-to-end latency within 1%. The span design makes the two equal
// by construction, so any deviation is an instrumentation gap — a
// code path that returned without Finish or skipped a transition. The
// stall ledger is checked the same way against the trace: each cause's
// ledger time is the sum of that cause's stall spans.
func TestAttributionConservation(t *testing.T) {
	const ops = 20_000
	tl := vclock.NewTimeline(0)
	base := ScaledOptions(ops, 1024, PaperTable64MB)
	// Throttle early so the run exercises the stall paths the ledger
	// must tag (the scaled default keeps L0 below the trigger).
	base.L0SlowdownTrigger = 2
	base.L0StopTrigger = 6
	reg := obs.NewRegistry()
	tel := obs.NewTelemetry(reg, base.PollInterval, 0)
	// The run emits ~16 k events: the default ring holds them all, so
	// no stall span drops (checked below).
	tr := obs.NewTracer(obs.DefaultTraceEvents)
	st, err := NewStoreObserved(tl, policy.NobLSM, base, base.PollInterval,
		obs.Sink{Metrics: reg, Trace: tr, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	check := func(kind string, i int64, sp obs.OpSpan) {
		total, sum := sp.Total(), sp.PhaseSum()
		if total == 0 {
			t.Fatalf("%s op %d: span never finished", kind, i)
		}
		diff := total - sum
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.01*float64(total) {
			t.Fatalf("%s op %d: phases sum to %v but total is %v (diff %v > 1%%)",
				kind, i, sum, total, diff)
		}
	}

	gen := dbbench.NewGenerator(dbbench.FillRandom, ops, 42)
	var buf []byte
	var wrote int64
	for i := int64(0); i < ops; i++ {
		k, _ := gen.Next()
		buf = dbbench.Value(buf, k, 0, 1024)
		var b engine.Batch
		b.Put(dbbench.Key(k), buf)
		sp, err := st.DB.WriteObserved(tl, &b)
		if err != nil {
			t.Fatal(err)
		}
		check("write", i, sp)
		wrote++
	}

	rgen := dbbench.NewGenerator(dbbench.ReadRandom, ops/10, 43)
	var read int64
	for i := int64(0); i < ops/10; i++ {
		k, _ := rgen.Next()
		_, sp, err := st.DB.GetObserved(tl, dbbench.Key(k))
		if err != nil && !errors.Is(err, engine.ErrNotFound) {
			t.Fatal(err)
		}
		check("read", i, sp)
		read++
	}

	// The aggregate plane saw every op.
	wt := tel.WriteTotal().Snapshot()
	if wt.Count() != wrote {
		t.Fatalf("write total timer saw %d ops, want %d", wt.Count(), wrote)
	}
	rt := tel.ReadTotal().Snapshot()
	if rt.Count() != read {
		t.Fatalf("read total timer saw %d ops, want %d", rt.Count(), read)
	}

	// Conservation holds in aggregate too: summed phase-timer time
	// equals summed op-total time within 1%.
	var phaseNs, totalNs int64
	for p := 0; p < obs.NumPhases; p++ {
		h := tel.PhaseTimer(obs.Phase(p)).Snapshot()
		phaseNs += int64(h.Mean()) * h.Count()
	}
	totalNs += int64(wt.Mean())*wt.Count() + int64(rt.Mean())*rt.Count()
	diff := phaseNs - totalNs
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(totalNs) {
		t.Fatalf("aggregate phases %dns vs totals %dns (diff beyond 1%%)", phaseNs, totalNs)
	}

	// Every stall of nonzero length draws one stall.<cause> span, so
	// per cause the ledger's time is the sum of its spans.
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("trace ring dropped %d events; size it for the run", d)
	}
	spans := make(map[string]vclock.Duration)
	for _, e := range tr.Events() {
		if e.Cat == "stall" {
			spans[e.Name] += e.Dur
		}
	}
	counters := reg.Counters()
	for c := obs.StallCause(0); int(c) < obs.NumStallCauses; c++ {
		ns := vclock.Duration(counter(t, counters, c.Metric("ns")))
		if span := spans["stall."+c.String()]; ns != span {
			t.Errorf("%s: ledger %v, trace spans %v", c, ns, span)
		}
	}
	if counter(t, counters, obs.StallL0Slowdown.Metric("count")) == 0 {
		t.Fatal("fill produced no L0 slowdowns — scale the run so stalls are exercised")
	}
}

// TestTelemetryMatchesUnobservedRun asserts the attribution plane only
// *reads* clocks: a telemetry-on run's virtual results are identical
// to the plain run's.
func TestTelemetryMatchesUnobservedRun(t *testing.T) {
	const ops = 5_000
	run := func(sink obs.Sink) Result {
		tl := vclock.NewTimeline(0)
		base := ScaledOptions(ops, 1024, PaperTable64MB)
		st, err := NewStoreObserved(tl, policy.NobLSM, base, base.PollInterval, sink)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, ops, 1024, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(obs.Sink{})
	reg := obs.NewRegistry()
	observed := run(obs.Sink{Metrics: reg, Telemetry: obs.NewTelemetry(reg, 0, 0)})
	if plain.Elapsed != observed.Elapsed || plain.MicrosPerOp != observed.MicrosPerOp {
		t.Fatalf("telemetry changed the run: plain %v/%.3f, observed %v/%.3f",
			plain.Elapsed, plain.MicrosPerOp, observed.Elapsed, observed.MicrosPerOp)
	}
	if plain.Syncs != observed.Syncs || plain.BytesSynced != observed.BytesSynced {
		t.Fatalf("telemetry changed sync counts: %d/%d vs %d/%d",
			plain.Syncs, plain.BytesSynced, observed.Syncs, observed.BytesSynced)
	}
}

// TestLiveExpositionMidBenchmark serves the exposition endpoints from
// a store while a benchmark is actively writing to it, the way
// `dbbench -run ... -listen :8080` does, and asserts every endpoint
// returns correct data both mid-run and after completion.
func TestLiveExpositionMidBenchmark(t *testing.T) {
	const ops = 60_000
	tl := vclock.NewTimeline(0)
	base := ScaledOptions(ops, 1024, PaperTable64MB)
	reg := obs.NewRegistry()
	tel := obs.NewTelemetry(reg, base.PollInterval, 0)
	tr := obs.NewTracer(obs.DefaultTraceEvents)
	st, err := NewStoreObserved(tl, policy.NobLSM, base, base.PollInterval,
		obs.Sink{Metrics: reg, Trace: tr, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	srv, addr, err := obs.ServeDynamic("127.0.0.1:0", st.Exposition)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s", addr)

	get := func(path string) (int, string) {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	benchErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := RunDBBench(st, tl.Now(), dbbench.FillRandom, ops, 1024, 1, 42)
		benchErr <- err
	}()

	// Poll /stats until the run has visibly progressed (ops recorded
	// in the write-total timer), proving the surface serves while the
	// engine commits. The virtual run takes real wall-clock time, but
	// guard against a fast machine finishing first: mid-run or not,
	// the payloads must be correct.
	type stats struct {
		Metrics *obs.Snapshot `json:"metrics"`
	}
	sawLive := false
	for i := 0; i < 10_000; i++ {
		code, body := get("/stats")
		if code != 200 {
			t.Fatalf("/stats = %d", code)
		}
		var s stats
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatalf("/stats not JSON: %v", err)
		}
		if s.Metrics != nil && s.Metrics.Timers["engine.op.write.total"].Count > 0 {
			sawLive = true
			break
		}
	}
	if !sawLive {
		t.Fatal("never observed write ops through /stats")
	}

	// /metrics serves Prometheus text with the attribution timers.
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "noblsm_engine_op_write_total_seconds_count") {
		t.Fatalf("/metrics = %d, missing attribution summary", code)
	}
	// /doctor renders the health report from the live engine.
	if code, body := get("/doctor"); code != 200 ||
		!strings.Contains(body, "== noblsm doctor ==") ||
		!strings.Contains(body, "-- stall ledger --") {
		t.Fatalf("/doctor = %d:\n%s", code, body)
	}
	// /trace downloads a Chrome trace file.
	if code, body := get("/trace"); code != 200 ||
		!strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("/trace = %d", code)
	}
	// pprof index answers.
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	wg.Wait()
	if err := <-benchErr; err != nil {
		t.Fatal(err)
	}

	// After completion the windows are consistent: sealed windows plus
	// the open one carry every op the total timer saw.
	var ops2 int64
	for _, w := range tel.Series.Windows() {
		ops2 += w.Ops
	}
	if cur, ok := tel.Series.Current(); ok {
		ops2 += cur.Ops
	}
	wt := tel.WriteTotal().Snapshot()
	if tel.Series.Dropped() == 0 && ops2 != wt.Count() {
		t.Fatalf("series accounted %d ops, timer saw %d", ops2, wt.Count())
	}
	code, body := get("/doctor")
	if code != 200 || !strings.Contains(body, "write.total") {
		t.Fatalf("final /doctor missing phase table:\n%s", body)
	}
}
