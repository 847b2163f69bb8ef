// Package obs is the unified observability layer of the stack: a
// named metrics registry (counters, gauges, histogram-backed timers),
// a bounded ring-buffer event tracer stamped with virtual-clock time,
// and an exporter to Chrome trace_event JSON so whole benchmark runs
// can be opened in chrome://tracing or Perfetto.
//
// Every layer of the stack — the engine and its stall ledger, the
// NobLSM tracker, the ext4 and SSD models, the block cache and the
// write-ahead log — registers its counters here, and the registry is
// the one place a counter lives: callers read it by name (Counters,
// Snapshot), not through per-component structs. Components accept an
// optional shared *Registry and fall back to a private one, so the
// registry is never nil on a hot path and metric updates are single
// atomic adds. Event tracing is optional: a nil *Tracer costs exactly
// one pointer check at each emission site.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"noblsm/internal/histogram"
	"noblsm/internal/vclock"
)

// Counter is a monotonically increasing int64 metric.
// The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// AddDuration adds a virtual duration, stored as nanoseconds. It is
// the idiom for stall-time counters, paired with Duration().
func (c *Counter) AddDuration(d vclock.Duration) { c.v.Add(int64(d)) }

// Duration reports the count as a virtual duration (nanoseconds).
func (c *Counter) Duration() vclock.Duration { return vclock.Duration(c.v.Load()) }

// Gauge is a point-in-time int64 metric.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reports the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates a latency distribution (histogram-backed).
type Timer struct {
	mu sync.Mutex
	h  histogram.Histogram
}

// Observe records one duration.
func (t *Timer) Observe(d vclock.Duration) {
	t.mu.Lock()
	t.h.Record(d)
	t.mu.Unlock()
}

// Snapshot returns a copy of the accumulated distribution.
func (t *Timer) Snapshot() histogram.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

// Histogram accumulates a distribution of plain int64 values (sizes,
// counts — not durations; use Timer for latencies). Backed by the
// same exponential-bucket histogram, with values recorded as raw
// units.
type Histogram struct {
	mu sync.Mutex
	h  histogram.Histogram
}

// Observe records one value (negative values count as zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.h.Record(vclock.Duration(v))
	h.mu.Unlock()
}

// Snapshot returns a copy of the accumulated distribution (bucket
// boundaries are in raw units despite the Duration type).
func (h *Histogram) Snapshot() histogram.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// Registry is a thread-safe, get-or-create store of named metrics.
// Names are dot-separated, component-prefixed ("engine.puts",
// "ext4.syncs", "ssd.bytes_written"); requesting the same name twice
// returns the same metric, which is how several components share one
// registry without coordination.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named value histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// TimerSnapshot is the JSON-friendly summary of one timer.
type TimerSnapshot struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// shaped for JSON emission (dbbench -metrics-json).
type Snapshot struct {
	Counters map[string]int64         `json:"counters"`
	Gauges   map[string]int64         `json:"gauges,omitempty"`
	Timers   map[string]TimerSnapshot `json:"timers,omitempty"`
	Hists    map[string]HistSnapshot  `json:"hists,omitempty"`
}

// HistSnapshot is the JSON-friendly summary of one value histogram
// (raw units, not microseconds).
type HistSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Counters copies out every counter's current value, by name.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		out[k] = c.Value()
	}
	return out
}

// Snapshot copies out every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: r.Counters()}
	r.mu.Lock()
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(timers) > 0 {
		s.Timers = make(map[string]TimerSnapshot, len(timers))
		for k, t := range timers {
			h := t.Snapshot()
			s.Timers[k] = TimerSnapshot{
				Count:  h.Count(),
				MeanUs: h.Mean().Microseconds(),
				P50Us:  h.Percentile(50).Microseconds(),
				P99Us:  h.Percentile(99).Microseconds(),
				P999Us: h.Percentile(99.9).Microseconds(),
				MaxUs:  h.Max().Microseconds(),
			}
		}
	}
	if len(hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(hists))
		for k, hg := range hists {
			h := hg.Snapshot()
			s.Hists[k] = HistSnapshot{
				Count: h.Count(),
				Mean:  float64(h.Mean()),
				P50:   int64(h.Percentile(50)),
				P99:   int64(h.Percentile(99)),
				Max:   int64(h.Max()),
			}
		}
	}
	return s
}

// String renders every metric, sorted by name, one per line — the
// backing of the "noblsm.metrics" property.
func (r *Registry) String() string {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Timers))
	lines := make(map[string]string)
	for k, v := range s.Counters {
		names = append(names, k)
		if strings.HasSuffix(k, "_ns") {
			lines[k] = fmt.Sprintf("%-44s %v", k, vclock.Duration(v))
		} else {
			lines[k] = fmt.Sprintf("%-44s %d", k, v)
		}
	}
	for k, v := range s.Gauges {
		names = append(names, k)
		lines[k] = fmt.Sprintf("%-44s %d (gauge)", k, v)
	}
	for k, t := range s.Timers {
		names = append(names, k)
		lines[k] = fmt.Sprintf("%-44s n=%d mean=%.1fµs p50=%.1fµs p99=%.1fµs p999=%.1fµs max=%.1fµs",
			k, t.Count, t.MeanUs, t.P50Us, t.P99Us, t.P999Us, t.MaxUs)
	}
	for k, h := range s.Hists {
		names = append(names, k)
		lines[k] = fmt.Sprintf("%-44s n=%d mean=%.1f p50=%d p99=%d max=%d",
			k, h.Count, h.Mean, h.P50, h.P99, h.Max)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(lines[n])
		b.WriteByte('\n')
	}
	return b.String()
}

// Sink bundles the halves of the observability layer as the single
// optional hook the engine Options carry. A nil *Sink (or nil fields)
// disables the corresponding half.
type Sink struct {
	Metrics *Registry
	Trace   *Tracer
	// Telemetry enables per-op latency attribution and the windowed
	// time-series (build with NewTelemetry over the same registry as
	// Metrics).
	Telemetry *Telemetry
}
