package obs

import (
	"sync"

	"noblsm/internal/vclock"
)

// Logical thread ids used for trace rows. The simulation has no OS
// threads; these name the virtual timelines so traces group spans the
// way the paper describes the system (foreground writers, background
// compaction, kjournald, the writeback flusher, the NobLSM tracker).
const (
	TidForeground     = 0
	TidBackgroundBase = 1 // background compaction worker i → 1+i
	TidJournal        = 90
	TidFlusher        = 91
	TidTracker        = 95
)

// ThreadName labels a tid for trace metadata.
func ThreadName(tid int) string {
	switch {
	case tid == TidForeground:
		return "foreground"
	case tid == TidJournal:
		return "jbd2/journal"
	case tid == TidFlusher:
		return "writeback-flusher"
	case tid == TidTracker:
		return "noblsm-tracker"
	case tid >= TidBackgroundBase && tid < TidJournal:
		return "compaction-bg"
	default:
		return "thread"
	}
}

// KV is one structured event argument. Args are a slice, not a map,
// so emission order is deterministic and export is reproducible.
type KV struct {
	K string
	V any
}

// Event is one traced occurrence: an instant (Dur == 0 and Instant
// set) or a completed span. Time is virtual-clock time.
type Event struct {
	Time    vclock.Time
	Dur     vclock.Duration
	Name    string
	Cat     string
	Tid     int
	Instant bool
	Args    []KV
}

// Tracer is a bounded ring buffer of events. When full, the oldest
// events are overwritten — a long fillrandom keeps its most recent
// window, and Dropped reports how much history was lost. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// call sites need only one pointer check to skip argument building.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// DefaultTraceEvents is the default ring capacity: enough for every
// compaction, stall and journal tick of a scaled paper run.
const DefaultTraceEvents = 1 << 16

// NewTracer returns a tracer retaining up to capacity events
// (DefaultTraceEvents if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit records one event.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.total%uint64(len(t.buf))] = e
	t.total++
	t.mu.Unlock()
}

// Span records a completed [from, to) span on tid.
func (t *Tracer) Span(tid int, cat, name string, from, to vclock.Time, args ...KV) {
	if t == nil {
		return
	}
	t.Emit(Event{Time: from, Dur: to.Sub(from), Name: name, Cat: cat, Tid: tid, Args: args})
}

// Instant records a point event on tid.
func (t *Tracer) Instant(tid int, cat, name string, at vclock.Time, args ...KV) {
	if t == nil {
		return
	}
	t.Emit(Event{Time: at, Name: name, Cat: cat, Tid: tid, Instant: true, Args: args})
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	c := uint64(len(t.buf))
	out := make([]Event, 0, min64(n, c))
	if n > c {
		start := n % c
		out = append(out, t.buf[start:]...)
		out = append(out, t.buf[:start]...)
	} else {
		out = append(out, t.buf[:n]...)
	}
	return out
}

// Len reports how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min64(t.total, uint64(len(t.buf))))
}

// Dropped reports how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total > uint64(len(t.buf)) {
		return t.total - uint64(len(t.buf))
	}
	return 0
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
