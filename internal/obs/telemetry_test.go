package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"noblsm/internal/vclock"
)

// TestOpSpanTransitions drives a span through the write-path phases
// and checks that phase durations sum to the end-to-end total by
// construction.
func TestOpSpanTransitions(t *testing.T) {
	var s OpSpan
	s.Begin(100, PhaseWriteEnqueue)
	s.To(150, PhaseWriteGroupWait) // enqueue: 50
	s.To(400, PhaseWriteApply)     // group_wait: 250
	total := s.Finish(430)         // apply: 30

	if total != 330 {
		t.Fatalf("total = %v, want 330", total)
	}
	if got := s.Phase(PhaseWriteEnqueue); got != 50 {
		t.Fatalf("enqueue = %v, want 50", got)
	}
	if got := s.Phase(PhaseWriteGroupWait); got != 250 {
		t.Fatalf("group_wait = %v, want 250", got)
	}
	if got := s.Phase(PhaseWriteApply); got != 30 {
		t.Fatalf("apply = %v, want 30", got)
	}
	if s.PhaseSum() != s.Total() {
		t.Fatalf("phase sum %v != total %v", s.PhaseSum(), s.Total())
	}
	// Re-begin resets cleanly.
	s.Begin(1000, PhaseReadMem)
	s.Finish(1010)
	if s.PhaseSum() != 10 || s.Phase(PhaseWriteEnqueue) != 0 {
		t.Fatalf("Begin did not reset: sum=%v enqueue=%v", s.PhaseSum(), s.Phase(PhaseWriteEnqueue))
	}
}

// TestOpSpanNilAndUnbegun checks the nil-receiver and never-begun
// no-op paths that make attribution free when disabled.
func TestOpSpanNilAndUnbegun(t *testing.T) {
	var nilSpan *OpSpan
	nilSpan.Begin(0, PhaseReadMem)
	nilSpan.To(10, PhaseReadHeal)
	if nilSpan.Finish(20) != 0 || nilSpan.Total() != 0 || nilSpan.PhaseSum() != 0 {
		t.Fatal("nil span not inert")
	}
	if nilSpan.Phase(PhaseReadMem) != 0 {
		t.Fatal("nil span phase not zero")
	}

	var unbegun OpSpan
	unbegun.To(10, PhaseReadHeal) // To before Begin: opted out
	if unbegun.Finish(20) != 0 || unbegun.PhaseSum() != 0 {
		t.Fatal("unbegun span accumulated time")
	}
}

// TestTelemetryNilIsSafe checks the whole plane no-ops on nil,
// including the ledger and series it carries.
func TestTelemetryNilIsSafe(t *testing.T) {
	var tel *Telemetry
	var s OpSpan
	s.Begin(0, PhaseWriteEnqueue)
	s.Finish(10)
	tel.ObserveWrite(&s)
	tel.ObserveRead(&s)
	tel.ObserveWrite(nil)
	if tel.PhaseTimer(PhaseWriteWAL) != nil || tel.WriteTotal() != nil || tel.ReadTotal() != nil {
		t.Fatal("nil telemetry returned timers")
	}

	var led *StallLedger
	led.Observe(StallL0Slowdown, 0, 10)
	if led.Count(StallL0Slowdown) != 0 || led.TotalNs(StallL0Slowdown) != 0 ||
		led.MaxNs(StallL0Slowdown) != 0 {
		t.Fatal("nil ledger not inert")
	}
	if led.String() == "" {
		t.Fatal("nil ledger String empty")
	}

	var ts *TimeSeries
	ts.Record(0, 10)
	ts.RecordStall(0, 10)
	if ts.Windows() != nil || ts.Dropped() != 0 || ts.MaxStall() != 0 || ts.Interval() != 0 {
		t.Fatal("nil series not inert")
	}
	if _, ok := ts.Current(); ok {
		t.Fatal("nil series has a current window")
	}
	if ts.Tail(3) == "" || ts.String() == "" {
		t.Fatal("nil series renders empty")
	}
}

// TestTelemetryObserve checks spans land in the right timers and the
// series.
func TestTelemetryObserve(t *testing.T) {
	r := NewRegistry()
	tel := NewTelemetry(r, vclock.Second, 8)

	var s OpSpan
	s.Begin(0, PhaseWriteEnqueue)
	s.To(100, PhaseWriteWAL)
	s.Finish(250)
	tel.ObserveWrite(&s)

	var g OpSpan
	g.Begin(300, PhaseReadMem)
	g.Finish(340)
	tel.ObserveRead(&g)

	wt := tel.WriteTotal().Snapshot()
	if n := wt.Count(); n != 1 {
		t.Fatalf("write total count = %d, want 1", n)
	}
	rt := tel.ReadTotal().Snapshot()
	if n := rt.Count(); n != 1 {
		t.Fatalf("read total count = %d, want 1", n)
	}
	wal := tel.PhaseTimer(PhaseWriteWAL).Snapshot()
	if d := wal.Max(); d != 150 {
		t.Fatalf("wal phase max = %v, want 150", d)
	}
	cur, ok := tel.Series.Current()
	if !ok || cur.Ops != 2 {
		t.Fatalf("series current = %+v ok=%v, want 2 ops", cur, ok)
	}
}

// TestStallLedgerAccounting checks per-cause counts, totals, maxima
// and the zero-duration fail-fast path.
func TestStallLedgerAccounting(t *testing.T) {
	r := NewRegistry()
	led := NewStallLedger(r, nil)
	led.Observe(StallL0Slowdown, 10, 100)
	led.Observe(StallL0Slowdown, 20, 300)
	led.Observe(StallMemtableFull, 30, 50)
	led.Observe(StallReadOnly, 40, 0) // fail-fast: counted, no duration

	if got := led.Count(StallL0Slowdown); got != 2 {
		t.Fatalf("slowdown count = %d, want 2", got)
	}
	if got := led.TotalNs(StallL0Slowdown); got != 400 {
		t.Fatalf("slowdown total = %v, want 400", got)
	}
	if got := led.MaxNs(StallL0Slowdown); got != 300 {
		t.Fatalf("slowdown max = %v, want 300", got)
	}
	if got := led.Count(StallReadOnly); got != 1 {
		t.Fatalf("read_only count = %d, want 1", got)
	}
	if got := led.TotalNs(StallMemtableFull) + led.TotalNs(StallReadOnly); got != 50 {
		t.Fatalf("memtable_full + read_only stall = %v, want 50", got)
	}
	// The registry carries the same numbers under engine.stall.*.
	snap := r.Snapshot()
	if got := snap.Counters["engine.stall.l0_slowdown.ns"]; got != 400 {
		t.Fatalf("registry slowdown ns = %d, want 400", got)
	}
	if got := snap.Gauges["engine.stall.l0_slowdown.max_ns"]; got != 300 {
		t.Fatalf("registry slowdown max = %d, want 300", got)
	}
	out := led.String()
	if !strings.Contains(out, "l0_slowdown") || !strings.Contains(out, "memtable_full") {
		t.Fatalf("ledger rendering missing causes:\n%s", out)
	}
}

// TestTimeSeriesRotation seals windows on interval boundaries,
// preserves index gaps across idle periods and folds late events into
// the current window.
func TestTimeSeriesRotation(t *testing.T) {
	ts := NewTimeSeries(100, 8)
	ts.Record(10, 1)  // window 0
	ts.Record(50, 3)  // window 0
	ts.Record(120, 5) // seals 0, opens 1
	ts.RecordStall(130, 40)
	ts.Record(710, 7) // seals 1, opens 7 (gap: idle 2..6)

	ws := ts.Windows()
	if len(ws) != 2 {
		t.Fatalf("sealed %d windows, want 2", len(ws))
	}
	if ws[0].Index != 0 || ws[0].Ops != 2 {
		t.Fatalf("window[0] = %+v, want index 0 ops 2", ws[0])
	}
	if ws[1].Index != 1 || ws[1].Ops != 1 || ws[1].Stalls != 1 || ws[1].StallNs != 40 {
		t.Fatalf("window[1] = %+v, want index 1, 1 op, 1 stall of 40ns", ws[1])
	}
	cur, ok := ts.Current()
	if !ok || cur.Index != 7 || cur.Ops != 1 {
		t.Fatalf("current = %+v ok=%v, want index 7 ops 1", cur, ok)
	}
	// An event from a timeline slightly behind the newest window folds
	// into the current window instead of rewinding.
	ts.Record(500, 9)
	cur, _ = ts.Current()
	if cur.Ops != 2 {
		t.Fatalf("late event not folded: current = %+v", cur)
	}
	if ts.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", ts.Dropped())
	}
}

// TestTimeSeriesRingOverwrite fills the ring past capacity and checks
// the retained suffix and the drop accounting.
func TestTimeSeriesRingOverwrite(t *testing.T) {
	ts := NewTimeSeries(10, 4)
	// Seal 10 windows (indices 0..9); an 11th stays open.
	for i := 0; i <= 10; i++ {
		ts.Record(vclock.Time(i*10), vclock.Duration(i+1))
	}
	ws := ts.Windows()
	if len(ws) != 4 {
		t.Fatalf("retained %d windows, want 4", len(ws))
	}
	for i, w := range ws {
		if want := int64(6 + i); w.Index != want {
			t.Fatalf("window[%d].Index = %d, want %d (oldest-first)", i, w.Index, want)
		}
	}
	if got := ts.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

// TestTimeSeriesMaxStall spans sealed windows and the open one.
func TestTimeSeriesMaxStall(t *testing.T) {
	ts := NewTimeSeries(vclock.Microsecond, 4)
	ts.RecordStall(0, 5*vclock.Microsecond)
	ts.RecordStall(vclock.Time(2*vclock.Microsecond), 3*vclock.Microsecond) // seals window 0
	if got := ts.MaxStall(); got != 5*vclock.Microsecond {
		t.Fatalf("max stall = %v, want 5µs", got)
	}
}

// TestTimeSeriesConcurrent hammers the series from many goroutines;
// under -race this verifies the ring's synchronization.
func TestTimeSeriesConcurrent(t *testing.T) {
	ts := NewTimeSeries(100, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				at := vclock.Time(i * (w + 1))
				ts.Record(at, vclock.Duration(i%97+1))
				if i%17 == 0 {
					ts.RecordStall(at, vclock.Duration(i%31+1))
				}
				if i%256 == 0 {
					ts.Windows()
					ts.Current()
					ts.MaxStall()
				}
			}
		}(w)
	}
	wg.Wait()
	ws := ts.Windows()
	var ops int64
	for _, w := range ws {
		ops += w.Ops
	}
	if cur, ok := ts.Current(); ok {
		ops += cur.Ops
	}
	// Overwritten windows take their op counts with them, so the
	// retained view is a lower bound; the ring itself must be full and
	// ordered.
	if ops == 0 || ops > 8*2000 {
		t.Fatalf("retained %d ops, want (0, %d]", ops, 8*2000)
	}
	if len(ws) > 16 {
		t.Fatalf("retained %d windows, ring capacity is 16", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Index <= ws[i-1].Index {
			t.Fatalf("windows out of order: %d after %d", ws[i].Index, ws[i-1].Index)
		}
	}
}

// TestExpositionEndpoints drives the handler against an in-memory
// registry/telemetry/trace stack and checks each endpoint's payload.
func TestExpositionEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.puts").Add(7)
	tel := NewTelemetry(r, 100, 8)
	var s OpSpan
	s.Begin(0, PhaseWriteEnqueue)
	s.Finish(40)
	tel.ObserveWrite(&s)
	NewStallLedger(r, tel).Observe(StallL0Slowdown, 50, 20)
	tr := NewTracer(16)
	tr.Instant(TidForeground, "test", "evt", 1)

	x := Exposition{
		Registry:  r,
		Telemetry: tel,
		Traces:    map[string]*Tracer{"NobLSM": tr},
		Doctor:    func() string { return "== noblsm doctor ==\nok\n" },
	}
	h := NewHandler(x)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/metrics"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), "noblsm_engine_puts 7") ||
		!strings.Contains(rec.Body.String(), "noblsm_engine_op_write_total_seconds_count 1") {
		t.Fatalf("/metrics = %d:\n%s", rec.Code, rec.Body.String())
	}

	rec := get("/stats")
	var p struct {
		Stalls map[string]struct {
			Count int64 `json:"count"`
		} `json:"stalls"`
		CurrentWindow *WindowStat `json:"current_window"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if p.Stalls["l0_slowdown"].Count != 1 {
		t.Fatalf("/stats stalls = %+v, want l0_slowdown count 1", p.Stalls)
	}
	if p.CurrentWindow == nil || p.CurrentWindow.Ops != 1 {
		t.Fatalf("/stats current window = %+v, want 1 op", p.CurrentWindow)
	}
	// The stalls come from the registry, so /stats reports them with
	// telemetry off too.
	p.Stalls = nil
	rec = httptest.NewRecorder()
	NewHandler(Exposition{Registry: r}).ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || p.Stalls["l0_slowdown"].Count != 1 {
		t.Fatalf("/stats without telemetry: stalls = %+v (%v), want l0_slowdown count 1", p.Stalls, err)
	}

	if rec := get("/trace"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), `"traceEvents"`) ||
		!strings.Contains(rec.Header().Get("Content-Disposition"), "noblsm-trace.json") {
		t.Fatalf("/trace = %d", rec.Code)
	}
	if rec := get("/doctor"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "noblsm doctor") {
		t.Fatalf("/doctor = %d:\n%s", rec.Code, rec.Body.String())
	}
	if rec := get("/debug/pprof/"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/ = %d", rec.Code)
	}
	if rec := get("/nosuch"); rec.Code != 404 {
		t.Fatalf("/nosuch = %d, want 404", rec.Code)
	}

	// Missing pieces degrade to explanations, not panics.
	empty := NewHandler(Exposition{})
	for path, wantCode := range map[string]int{"/metrics": 200, "/stats": 200, "/trace": 404, "/doctor": 404} {
		rec := httptest.NewRecorder()
		empty.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != wantCode {
			t.Fatalf("empty exposition %s = %d, want %d", path, rec.Code, wantCode)
		}
	}
}

// TestDynamicHandler re-reads the exposition per request, the way a
// per-variant benchmark repoints one listener at successive stacks.
func TestDynamicHandler(t *testing.T) {
	var mu sync.Mutex
	cur := Exposition{}
	h := NewDynamicHandler(func() Exposition {
		mu.Lock()
		defer mu.Unlock()
		return cur
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/doctor", nil))
	if rec.Code != 404 {
		t.Fatalf("before wiring: /doctor = %d, want 404", rec.Code)
	}
	mu.Lock()
	cur = Exposition{Doctor: func() string { return "healthy" }}
	mu.Unlock()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/doctor", nil))
	if rec.Code != 200 || rec.Body.String() != "healthy" {
		t.Fatalf("after wiring: /doctor = %d %q", rec.Code, rec.Body.String())
	}
}

// TestChromeExportDroppedHeader asserts a wrapped ring's export
// declares its truncation in otherData.
func TestChromeExportDroppedHeader(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Instant(TidForeground, "c", "e", vclock.Time(i))
	}
	exp := NewChromeExporter()
	exp.AddProcess(1, "proc", tr)
	var b strings.Builder
	if err := exp.Write(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["droppedEvents"] == nil {
		t.Fatalf("export missing droppedEvents header: %v", doc.OtherData)
	}
}
