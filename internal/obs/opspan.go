package obs

import (
	"noblsm/internal/vclock"
)

// This file implements per-operation latency attribution: an OpSpan
// rides along one engine operation (a Write through the group-commit
// queue, a Get through the read path) and splits the op's end-to-end
// virtual latency into named phases. The design is transition-based —
// at every instant of the op exactly one phase is open, and switching
// phases closes the previous one — so the phase durations sum to the
// op's total latency BY CONSTRUCTION. The attribution-sum test
// (internal/harness) then proves the engine's instrumentation covers
// every path: a forgotten transition shows up as time charged to the
// wrong phase, an early return without Finish shows up as a missing
// op.

// Phase names one slice of an operation's latency. Write and read
// phases share one enum so a single timer array covers both.
type Phase uint8

const (
	// Write-path phases (engine/writequeue.go).

	// PhaseWriteEnqueue: from Write entry until the request either
	// becomes the group leader or is woken with its group's result.
	PhaseWriteEnqueue Phase = iota
	// PhaseWriteGroupWait: a follower waiting for its leader's commit
	// to complete (the WaitUntil to the group's commit instant).
	PhaseWriteGroupWait
	// PhaseWriteThrottle: the leader making room — L0 slowdown
	// penalties, waits for the previous flush, L0 stop-trigger waits,
	// poisoned-WAL rotation.
	PhaseWriteThrottle
	// PhaseWriteFlush: an inline minor compaction (the synchronous
	// engine's memtable handoff; async mode parks the memtable
	// instead and charges nothing here).
	PhaseWriteFlush
	// PhaseWriteWAL: the group's single write-ahead-log append.
	PhaseWriteWAL
	// PhaseWriteSync: a write-path WAL fsync. Every current policy
	// leaves the WAL unsynced (LevelDB's default), so this phase is
	// zero; the slot exists so a sync-write policy lands in the
	// taxonomy instead of inside PhaseWriteWAL.
	PhaseWriteSync
	// PhaseWriteApply: memtable application, sequence publication and
	// the per-record CPU charge.
	PhaseWriteApply

	// Read-path phases (engine/db.go Get).

	// PhaseReadMem: per-op CPU plus the memtable and immutable-
	// memtable probes.
	PhaseReadMem
	// PhaseReadTableOpen: table-cache probes — opening a reader,
	// which is a cache hit or a footer/index/filter fetch.
	PhaseReadTableOpen
	// PhaseReadTableGet: data-block fetches through an open reader
	// (block-cache hits and device reads).
	PhaseReadTableGet
	// PhaseReadHeal: self-healing rollback of a corrupt successor
	// onto retained shadow predecessors (heal.go).
	PhaseReadHeal
	// PhaseReadBackoff: transient-fault retry backoff.
	PhaseReadBackoff

	NumPhases int = iota
)

// phaseNames index the metric suffix of each phase.
var phaseNames = [NumPhases]string{
	PhaseWriteEnqueue:   "write.enqueue",
	PhaseWriteGroupWait: "write.group_wait",
	PhaseWriteThrottle:  "write.throttle",
	PhaseWriteFlush:     "write.flush",
	PhaseWriteWAL:       "write.wal_append",
	PhaseWriteSync:      "write.wal_sync",
	PhaseWriteApply:     "write.mem_apply",
	PhaseReadMem:        "read.memtable",
	PhaseReadTableOpen:  "read.table_open",
	PhaseReadTableGet:   "read.table_fetch",
	PhaseReadHeal:       "read.heal",
	PhaseReadBackoff:    "read.backoff",
}

// String returns the phase's metric suffix ("write.wal_append").
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// WritePhases and ReadPhases list each path's phases in pipeline
// order, for rendering.
var (
	WritePhases = []Phase{PhaseWriteEnqueue, PhaseWriteGroupWait, PhaseWriteThrottle,
		PhaseWriteFlush, PhaseWriteWAL, PhaseWriteSync, PhaseWriteApply}
	ReadPhases = []Phase{PhaseReadMem, PhaseReadTableOpen, PhaseReadTableGet,
		PhaseReadHeal, PhaseReadBackoff}
)

// OpSpan accumulates one operation's phase durations on the calling
// thread's virtual timeline. The zero value is ready; Begin opens the
// first phase, To closes the current phase and opens the next, Finish
// closes the last. All methods are nil-receiver no-ops so call sites
// pay one pointer check when attribution is off. An OpSpan is owned by
// one operation (one goroutine) at a time and is not self-
// synchronizing.
type OpSpan struct {
	start  vclock.Time
	mark   vclock.Time
	cur    Phase
	open   bool
	phases [NumPhases]vclock.Duration
}

// Begin resets the span and opens phase p at instant at.
func (s *OpSpan) Begin(at vclock.Time, p Phase) {
	if s == nil {
		return
	}
	s.phases = [NumPhases]vclock.Duration{}
	s.start, s.mark, s.cur, s.open = at, at, p, true
}

// To closes the current phase at instant at and opens phase p. Calling
// To on an unbegun span is a no-op (the operation opted out).
func (s *OpSpan) To(at vclock.Time, p Phase) {
	if s == nil || !s.open {
		return
	}
	if d := at.Sub(s.mark); d > 0 {
		s.phases[s.cur] += d
	}
	s.mark, s.cur = at, p
}

// Finish closes the open phase at instant at and returns the span's
// end-to-end duration (zero if never begun).
func (s *OpSpan) Finish(at vclock.Time) vclock.Duration {
	if s == nil || !s.open {
		return 0
	}
	if d := at.Sub(s.mark); d > 0 {
		s.phases[s.cur] += d
	}
	s.mark = at
	s.open = false
	return at.Sub(s.start)
}

// Total reports the finished span's end-to-end duration.
func (s *OpSpan) Total() vclock.Duration {
	if s == nil {
		return 0
	}
	return s.mark.Sub(s.start)
}

// Phase reports the accumulated duration of one phase.
func (s *OpSpan) Phase(p Phase) vclock.Duration {
	if s == nil {
		return 0
	}
	return s.phases[p]
}

// PhaseSum reports the sum of every phase duration. For a finished
// span it equals Total by construction; the attribution test asserts
// the two agree within tolerance to catch instrumentation gaps.
func (s *OpSpan) PhaseSum() vclock.Duration {
	if s == nil {
		return 0
	}
	var sum vclock.Duration
	for _, d := range s.phases {
		sum += d
	}
	return sum
}

// Telemetry is the latency-attribution plane: per-phase timers, op-
// class totals and the windowed time-series, all resolved from one
// registry. A nil *Telemetry disables attribution at one pointer
// check per operation. The stall ledger is not part of it: the engine
// owns one either way and, with telemetry on, feeds its stalls into
// Series.
type Telemetry struct {
	phases     [NumPhases]*Timer
	writeTotal *Timer
	readTotal  *Timer

	// Series is the windowed latency/stall time-series.
	Series *TimeSeries
}

// NewTelemetry builds the attribution plane over registry r: phase
// timers under "engine.op.<phase>", totals under
// "engine.op.{write,read}.total", and a time-series of the given
// window interval and count (see NewTimeSeries for defaults).
func NewTelemetry(r *Registry, interval vclock.Duration, windows int) *Telemetry {
	t := &Telemetry{
		writeTotal: r.Timer("engine.op.write.total"),
		readTotal:  r.Timer("engine.op.read.total"),
		Series:     NewTimeSeries(interval, windows),
	}
	for p := 0; p < NumPhases; p++ {
		t.phases[p] = r.Timer("engine.op." + Phase(p).String())
	}
	return t
}

// ObserveWrite folds a finished write span into the per-phase timers,
// the write-total timer and the time-series.
func (t *Telemetry) ObserveWrite(s *OpSpan) {
	if t == nil {
		return
	}
	t.observe(s, t.writeTotal)
}

// ObserveRead folds a finished read span into the per-phase timers,
// the read-total timer and the time-series.
func (t *Telemetry) ObserveRead(s *OpSpan) {
	if t == nil {
		return
	}
	t.observe(s, t.readTotal)
}

func (t *Telemetry) observe(s *OpSpan, total *Timer) {
	if t == nil || s == nil {
		return
	}
	for p, d := range s.phases {
		if d > 0 {
			t.phases[p].Observe(d)
		}
	}
	total.Observe(s.Total())
	t.Series.Record(s.mark, s.Total())
}

// PhaseTimer exposes the timer backing one phase (for rendering).
func (t *Telemetry) PhaseTimer(p Phase) *Timer {
	if t == nil {
		return nil
	}
	return t.phases[p]
}

// WriteTotal and ReadTotal expose the op-class total timers.
func (t *Telemetry) WriteTotal() *Timer {
	if t == nil {
		return nil
	}
	return t.writeTotal
}

// ReadTotal exposes the read-op total timer.
func (t *Telemetry) ReadTotal() *Timer {
	if t == nil {
		return nil
	}
	return t.readTotal
}
