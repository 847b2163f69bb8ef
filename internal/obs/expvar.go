package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// This file is the live exposition surface of the telemetry plane: an
// http.Handler that serves the registry, the windowed time-series, the
// stall ledger and the trace ring from a *running* process, so a
// long-run benchmark can be watched (and profiled) while it executes
// instead of only post-mortem. Endpoints:
//
//	/            index of everything below
//	/metrics     Prometheus text exposition (counters, gauges, timers)
//	/stats       JSON: registry snapshot + windows + stall ledger
//	/trace       Chrome trace_event JSON download (chrome://tracing)
//	/doctor      the engine's one-page health report, when wired
//	/debug/pprof the standard net/http/pprof profiles
//
// Everything is read-only and safe to poll while the engine runs.

// Exposition describes what an exposition handler serves. Any field
// may be nil; the corresponding endpoint then reports what is missing
// instead of panicking.
type Exposition struct {
	// Registry backs /metrics and the metrics section of /stats.
	Registry *Registry
	// Telemetry, when set, contributes the windowed time-series to
	// /stats.
	Telemetry *Telemetry
	// Traces maps process names to trace rings; /trace exports them
	// as one Chrome trace file (process ids follow sorted names).
	Traces map[string]*Tracer
	// Doctor, when set, backs /doctor — typically a closure over
	// DB.Property("noblsm.doctor").
	Doctor func() string
}

// NewHandler builds the exposition handler.
func NewHandler(x Exposition) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", x.serveIndex)
	mux.HandleFunc("/metrics", x.serveMetrics)
	mux.HandleFunc("/stats", x.serveStats)
	mux.HandleFunc("/trace", x.serveTrace)
	mux.HandleFunc("/doctor", x.serveDoctor)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewDynamicHandler builds an exposition handler that re-reads the
// Exposition from get on every request. Benchmarks that provision one
// stack per variant use this to keep a single listener pointed at
// whichever stack is currently running; get must be safe for
// concurrent use.
func NewDynamicHandler(get func() Exposition) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		NewHandler(get()).ServeHTTP(w, r)
	})
}

// ServeDynamic binds addr (":0" picks a free port), serves
// NewDynamicHandler(get) on it in a background goroutine, and returns
// the server plus the bound address. Callers own server shutdown
// (srv.Close).
func ServeDynamic(addr string, get func() Exposition) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: NewDynamicHandler(get)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

func (x Exposition) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "noblsm telemetry\n\n")
	fmt.Fprintf(w, "/metrics       Prometheus text exposition\n")
	fmt.Fprintf(w, "/stats         JSON registry + windows + stall ledger\n")
	fmt.Fprintf(w, "/trace         Chrome trace_event download\n")
	fmt.Fprintf(w, "/doctor        engine health report\n")
	fmt.Fprintf(w, "/debug/pprof/  runtime profiles\n")
}

// promName mangles a dotted metric name into the Prometheus
// identifier charset with a noblsm_ namespace prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("noblsm_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func (x Exposition) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if x.Registry == nil {
		fmt.Fprintf(w, "# no registry wired\n")
		return
	}
	s := x.Registry.Snapshot()

	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[k])
	}

	// Timers render as summaries in seconds, the Prometheus duration
	// convention.
	names = names[:0]
	for k := range s.Timers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t := s.Timers[k]
		n := promName(k) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n", n, t.P50Us/1e6)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %g\n", n, t.P99Us/1e6)
		fmt.Fprintf(w, "%s{quantile=\"0.999\"} %g\n", n, t.P999Us/1e6)
		fmt.Fprintf(w, "%s_sum %g\n", n, t.MeanUs*float64(t.Count)/1e6)
		fmt.Fprintf(w, "%s_count %d\n", n, t.Count)
	}

	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Hists[k]
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", n, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", n, h.P99)
		fmt.Fprintf(w, "%s_sum %g\n", n, h.Mean*float64(h.Count))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

// statsPayload is the /stats JSON document.
type statsPayload struct {
	Metrics *Snapshot `json:"metrics,omitempty"`

	SeriesIntervalNs int64        `json:"series_interval_ns,omitempty"`
	Windows          []WindowStat `json:"windows,omitempty"`
	CurrentWindow    *WindowStat  `json:"current_window,omitempty"`
	DroppedWindows   uint64       `json:"dropped_windows,omitempty"`

	Stalls       map[string]stallStat `json:"stalls,omitempty"`
	TraceDropped map[string]uint64    `json:"trace_dropped,omitempty"`
}

type stallStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
}

func (x Exposition) serveStats(w http.ResponseWriter, _ *http.Request) {
	var p statsPayload
	if x.Registry != nil {
		s := x.Registry.Snapshot()
		p.Metrics = &s
		// The stall ledger lives in the registry; a cause that never
		// stalled is left out.
		p.Stalls = make(map[string]stallStat, NumStallCauses)
		for c := StallCause(0); int(c) < NumStallCauses; c++ {
			if n := s.Counters[c.Metric("count")]; n > 0 {
				p.Stalls[c.String()] = stallStat{Count: n,
					TotalNs: s.Counters[c.Metric("ns")], MaxNs: s.Gauges[c.Metric("max_ns")]}
			}
		}
	}
	if t := x.Telemetry; t != nil {
		p.SeriesIntervalNs = int64(t.Series.Interval())
		p.Windows = t.Series.Windows()
		if cur, ok := t.Series.Current(); ok {
			p.CurrentWindow = &cur
		}
		p.DroppedWindows = t.Series.Dropped()
	}
	for name, tr := range x.Traces {
		if d := tr.Dropped(); d > 0 {
			if p.TraceDropped == nil {
				p.TraceDropped = make(map[string]uint64)
			}
			p.TraceDropped[name] = d
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}

func (x Exposition) serveTrace(w http.ResponseWriter, _ *http.Request) {
	if len(x.Traces) == 0 {
		http.Error(w, "no trace ring wired (run with -trace)", http.StatusNotFound)
		return
	}
	names := make([]string, 0, len(x.Traces))
	for name := range x.Traces {
		names = append(names, name)
	}
	sort.Strings(names)
	exp := NewChromeExporter()
	for pid, name := range names {
		exp.AddProcess(pid+1, name, x.Traces[name])
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="noblsm-trace.json"`)
	_ = exp.Write(w)
}

func (x Exposition) serveDoctor(w http.ResponseWriter, _ *http.Request) {
	if x.Doctor == nil {
		http.Error(w, "no doctor wired (engine not attached)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, x.Doctor())
}
