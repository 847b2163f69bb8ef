package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"noblsm/internal/vclock"
)

// This file implements the stall ledger: every instant a foreground
// operation spends blocked on background state is charged to exactly
// one named cause, so "where did the p99 go" has a queryable answer
// instead of a single aggregate stall counter. Luo & Carey's stability
// study (PAPERS.md) shows mean throughput hides exactly this: the
// ledger is the substrate the stall-aware scheduler and p99 governor
// (ROADMAP item 3) will be tuned against.

// StallCause tags one reason a foreground operation stalled.
type StallCause uint8

const (
	// StallL0Slowdown: the L0 soft limit charged its per-write
	// slowdown penalty.
	StallL0Slowdown StallCause = iota
	// StallMemtableFull: the memtable filled while the previous
	// immutable memtable was still flushing (the rotation wait).
	StallMemtableFull
	// StallCompactionBacklog: L0 reached the stop trigger and the
	// write waited for background compactions to drain.
	StallCompactionBacklog
	// StallReadOnly: a write was rejected because a permanent
	// background error flipped the DB read-only (a fail-fast stall:
	// counted with zero duration).
	StallReadOnly
	// StallWALRotate: the write waited while a poisoned write-ahead
	// log was rotated out before its group could append.
	StallWALRotate
	// StallAdmissionPacing: the admission governor paced the write — a
	// small bounded delay matched to the background drain rate,
	// replacing the slowdown/stop cliff (internal/governor).
	StallAdmissionPacing
	// StallWriteStalled: a write waited its Options.WriteStallDeadline
	// and was then failed with ErrWriteStalled so the caller could
	// shed load instead of queueing unboundedly.
	StallWriteStalled

	NumStallCauses int = iota
)

var stallCauseNames = [NumStallCauses]string{
	StallL0Slowdown:        "l0_slowdown",
	StallMemtableFull:      "memtable_full",
	StallCompactionBacklog: "compaction_backlog",
	StallReadOnly:          "read_only",
	StallWALRotate:         "wal_rotate",
	StallAdmissionPacing:   "admission_pacing",
	StallWriteStalled:      "write_stalled",
}

// String returns the cause's metric suffix ("l0_slowdown").
func (c StallCause) String() string {
	if int(c) < len(stallCauseNames) {
		return stallCauseNames[c]
	}
	return "stall(?)"
}

// StallLedger accumulates per-cause stall accounting: occurrence
// count, total stall time, and the largest single stall. Counters are
// registry-backed so the ledger shows up in every metrics surface;
// max tracking is under a small mutex (stalls are rare events, never
// the per-op hot path). All methods are nil-receiver no-ops.
type StallLedger struct {
	mu     sync.Mutex
	counts [NumStallCauses]*Counter
	ns     [NumStallCauses]*Counter
	maxNs  [NumStallCauses]*Gauge
	// series, when set, receives every stall for windowed max-stall
	// reporting (wired by NewTelemetry).
	series *TimeSeries
}

// NewStallLedger registers the ledger's metrics on r under
// "engine.stall.<cause>.{count,ns,max_ns}".
func NewStallLedger(r *Registry) *StallLedger {
	l := &StallLedger{}
	for c := 0; c < NumStallCauses; c++ {
		name := StallCause(c).String()
		l.counts[c] = r.Counter("engine.stall." + name + ".count")
		l.ns[c] = r.Counter("engine.stall." + name + ".ns")
		l.maxNs[c] = r.Gauge("engine.stall." + name + ".max_ns")
	}
	return l
}

// Observe charges one stall of duration d ending at instant at to
// cause c. Zero-duration stalls (fail-fast rejections) count an
// occurrence without stall time.
func (l *StallLedger) Observe(c StallCause, at vclock.Time, d vclock.Duration) {
	if l == nil {
		return
	}
	l.counts[c].Inc()
	if d > 0 {
		l.ns[c].AddDuration(d)
		l.mu.Lock()
		if int64(d) > l.maxNs[c].Value() {
			l.maxNs[c].Set(int64(d))
		}
		l.mu.Unlock()
	}
	l.series.RecordStall(at, d)
}

// Count, TotalNs and MaxNs report one cause's accounting.
func (l *StallLedger) Count(c StallCause) int64 {
	if l == nil {
		return 0
	}
	return l.counts[c].Value()
}

// TotalNs reports the cause's accumulated stall time.
func (l *StallLedger) TotalNs(c StallCause) vclock.Duration {
	if l == nil {
		return 0
	}
	return l.ns[c].Duration()
}

// MaxNs reports the cause's largest single stall.
func (l *StallLedger) MaxNs(c StallCause) vclock.Duration {
	if l == nil {
		return 0
	}
	return vclock.Duration(l.maxNs[c].Value())
}

// TotalStallNs sums stall time across every cause.
func (l *StallLedger) TotalStallNs() vclock.Duration {
	if l == nil {
		return 0
	}
	var sum vclock.Duration
	for c := 0; c < NumStallCauses; c++ {
		sum += l.ns[c].Duration()
	}
	return sum
}

// String renders the ledger, worst total first — the stall section of
// the doctor report.
func (l *StallLedger) String() string {
	if l == nil {
		return "(no stall ledger)\n"
	}
	type row struct {
		cause StallCause
		count int64
		total vclock.Duration
		max   vclock.Duration
	}
	rows := make([]row, 0, NumStallCauses)
	for c := 0; c < NumStallCauses; c++ {
		rows = append(rows, row{StallCause(c), l.Count(StallCause(c)),
			l.TotalNs(StallCause(c)), l.MaxNs(StallCause(c))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].cause < rows[j].cause
	})
	var b strings.Builder
	for _, r := range rows {
		if r.count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-20s count=%-8d total=%-12v max=%v\n",
			r.cause, r.count, r.total, r.max)
	}
	if b.Len() == 0 {
		return "(no stalls observed)\n"
	}
	return b.String()
}
