// Package governor implements closed-loop write admission control: a
// token-bucket limiter whose refill rate is continuously re-estimated
// from the measured background drain rate (bytes retired by flushes
// and compactions per virtual second), scaled down as L0/memtable debt
// grows. Writers charge their batch bytes at enqueue time and pay the
// bucket's deficit as a small pacing delay, so compaction pressure
// turns into many bounded per-write delays instead of the LevelDB
// cliff (a fixed slowdown penalty at the L0 soft limit, then a
// hard stop at the L0 stop trigger).
//
// The control loop is the classic delayed-write-rate design Luo &
// Carey catalogue for RocksDB ("On Performance Stability in LSM-based
// Storage Systems", PAPERS.md): while debt sits below the ramp there
// is no limiting at all; inside the ramp the admitted rate is the
// drain rate times a factor that falls linearly from maxFactor
// (slightly above drain, letting debt shrink slowly) to minFactor
// (well below drain, forcing debt to fall). Because the admitted rate
// brackets the drain rate, L0 converges to the ramp region instead of
// oscillating between "no throttle" and "stopped".
//
// Everything is virtual time: delays are returned to the caller to
// Advance on its own timeline, never slept, so the governor composes
// with the deterministic harness. All state is behind one small mutex
// — admission is one lock + a handful of float ops per write, off the
// group-commit critical section (no db.mu).
package governor

import (
	"fmt"
	"sync"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// Config tunes the control loop. Derive computes every field but
// MaxRateBytesPerSec from the store's geometry; tests override single
// fields of its result. No field has a default: New uses them as given.
type Config struct {
	// BurstBytes is the token-bucket capacity: how many bytes may be
	// admitted instantly from an idle bucket before pacing starts.
	BurstBytes int64
	// MinRateBytesPerSec floors the admitted rate so a cold drain
	// estimate (startup, an idle store) can never wedge writers.
	MinRateBytesPerSec int64
	// MaxRateBytesPerSec optionally caps the admitted rate while
	// pacing is active, even when the drain estimate is higher (0 =
	// no cap). Tests set it to pin a deterministic saturation point.
	MaxRateBytesPerSec int64
	// MaxDelay caps a single pacing delay. This is the governor's
	// worst-case contribution to any one write's latency — the
	// quantity the stability gate measures.
	MaxDelay vclock.Duration
	// EstimateInterval is the drain-rate re-estimation cadence.
	EstimateInterval vclock.Duration
	// RampStart and RampStop are the L0 file counts between which
	// pacing ramps from maxFactor to minFactor. Below RampStart
	// writes are unlimited; at and above RampStop the admitted rate
	// stays pinned at minFactor times the drain rate.
	RampStart, RampStop int
	// FillBytes is how many foreground bytes fit before the next
	// memtable rotation. With a positive flush lag the admitted rate
	// is additionally capped at FillBytes/(4×lag), so writers arrive
	// at the next rotation after the flush horizon has passed —
	// regardless of how stale the drain estimate is. The margin is 4×
	// (not 1×) because the cap re-tracks the shrinking lag as writers
	// pay it down: with margin k the residual at fill end is lag·e^−k,
	// so k=4 retires ~98% of the lag within one fill. 0 disables the
	// cap.
	FillBytes int64
}

// Model constants: no caller in the repository varies them.
const (
	// maxFactor and minFactor bound the admitted-rate multiplier over
	// the drain rate across the ramp.
	maxFactor, minFactor = 1.25, 0.25
	// flushLagRef is the second debt axis: how far the flush horizon
	// (the virtual completion instant of the in-flight/last flush,
	// published via SetFlushHorizon) may run ahead of the writers
	// before the admitted rate is pinned at minFactor — four times the
	// derived MaxDelay. Lag between 0 and flushLagRef ramps the factor
	// exactly like the L0 axis; the tighter of the two axes wins. This
	// is what converts the "memtable filled before the previous flush
	// landed" rotation cliff — the dominant stall of the ungoverned
	// engine — into bounded pacing.
	flushLagRef = 8 * vclock.Millisecond
)

// Derive is the governor geometry of a store with the given L0
// compaction trigger, L0 stop trigger and memtable size in bytes:
//
//   - the ramp runs from the compaction trigger to the stop trigger,
//     or 8 files past the trigger when the stop is not above it;
//   - the burst is a quarter memtable within [4 KiB, 1 MiB] — a 1 MiB
//     bucket in front of a scaled 32 KiB memtable would absorb entire
//     runs without pacing;
//   - the rate floor is one memtable per second, never below 64 KiB/s:
//     a fixed floor sized for the paper's 64 MB memtable would exceed
//     what a scaled-down store's background can retire and pin the
//     admitted rate above drain;
//   - FillBytes is the memtable;
//   - MaxDelay is 2 ms, twice the engine's slowdown penalty, paid
//     smoothly and only under measured debt instead of as a cliff;
//   - the drain estimate refreshes every 50 ms.
func Derive(l0Trigger, l0Stop int, writeBuffer int64) Config {
	if l0Stop <= l0Trigger {
		l0Stop = l0Trigger + 8
	}
	return Config{
		BurstBytes:         min(max(writeBuffer/4, 4<<10), 1<<20),
		MinRateBytesPerSec: max(writeBuffer, 64<<10),
		MaxDelay:           2 * vclock.Millisecond,
		EstimateInterval:   50 * vclock.Millisecond,
		RampStart:          l0Trigger,
		RampStop:           l0Stop,
		FillBytes:          writeBuffer,
	}
}

// Governor is one store's admission controller. Safe for concurrent
// use; all methods are nil-receiver no-ops so an ungoverned engine
// pays a single pointer check.
type Governor struct {
	cfg   Config
	drain func() int64 // cumulative bytes retired by flush+compaction

	mu sync.Mutex
	// tokens is the bucket level in bytes; negative is the deficit
	// writers are paying off, clamped at -BurstBytes.
	tokens float64
	lastAt vclock.Time
	// drainRate is the EWMA drain estimate (bytes per virtual
	// second); rate is the currently admitted rate (0 = unlimited).
	drainRate   float64
	rate        float64
	lastEstAt   vclock.Time
	lastDrained int64
	estPrimed   bool

	// Debt snapshot, published by the engine under db.mu whenever the
	// version or the memtable rotation state changes. flushHorizon is
	// the virtual instant the most recent flush completes; writers
	// behind it are fine, writers ahead of it are outrunning the
	// background and get paced.
	l0Files      int
	debtBytes    int64
	flushHorizon vclock.Time

	// Registry surfaces ("engine.governor.*").
	gRate      *obs.Gauge
	gDrain     *obs.Gauge
	gTokens    *obs.Gauge
	gDebtBytes *obs.Gauge
	gL0        *obs.Gauge
	gLag       *obs.Gauge
	admitted   *obs.Counter
	paced      *obs.Counter
	pacingNs   *obs.Counter
	preempts   *obs.Counter
}

// New builds a governor over drain, a monotone counter of bytes the
// background has retired (flush + compaction output bytes). Metrics
// register on r under "engine.governor.*"; r must be non-nil.
func New(r *obs.Registry, drain func() int64, cfg Config) *Governor {
	g := &Governor{
		cfg:   cfg,
		drain: drain,

		gRate:      r.Gauge("engine.governor.rate_bytes_per_sec"),
		gDrain:     r.Gauge("engine.governor.drain_bytes_per_sec"),
		gTokens:    r.Gauge("engine.governor.tokens_bytes"),
		gDebtBytes: r.Gauge("engine.governor.debt_bytes"),
		gL0:        r.Gauge("engine.governor.l0_files"),
		gLag:       r.Gauge("engine.governor.flush_lag_ns"),
		admitted:   r.Counter("engine.governor.admitted_bytes"),
		paced:      r.Counter("engine.governor.paced_writes"),
		pacingNs:   r.Counter("engine.governor.pacing_ns"),
		preempts:   r.Counter("engine.governor.l0_preempts"),
	}
	g.tokens = float64(g.cfg.BurstBytes)
	r.Gauge("engine.governor.enabled").Set(1)
	return g
}

// SetDebt publishes the current backlog: the leveled L0 file count
// and the byte debt behind it (L0 bytes plus any parked immutable
// memtable). The engine calls it whenever either changes.
func (g *Governor) SetDebt(l0Files int, debtBytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.l0Files = l0Files
	g.debtBytes = debtBytes
	g.mu.Unlock()
	g.gL0.Set(int64(l0Files))
	g.gDebtBytes.Set(debtBytes)
}

// SetFlushHorizon publishes the virtual completion instant of the
// most recent flush (the engine's minorDoneAt). The governor paces
// writers that run ahead of it — the lag that would otherwise surface
// as one large memtable-rotation stall.
func (g *Governor) SetFlushHorizon(t vclock.Time) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if t > g.flushHorizon {
		g.flushHorizon = t
	}
	g.mu.Unlock()
}

// NotePreempt counts one deeper-level compaction deferred in favour of
// an L0→L1 pick while L0 was over the slowdown trigger.
func (g *Governor) NotePreempt() {
	if g == nil {
		return
	}
	g.preempts.Inc()
}

// Admit charges bytes against the bucket at virtual instant now and
// returns the pacing delay the caller must Advance before proceeding
// (0 when the bucket covers the write).
func (g *Governor) Admit(now vclock.Time, bytes int64) vclock.Duration {
	if g == nil || bytes <= 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Writers carry independent timelines; the bucket's clock is the
	// max instant it has seen, so a lagging writer never refills with
	// time an advanced writer already spent.
	if now > g.lastAt {
		g.tokens += g.rateLocked() * now.Sub(g.lastAt).Seconds()
		if g.tokens > float64(g.cfg.BurstBytes) {
			g.tokens = float64(g.cfg.BurstBytes)
		}
		g.lastAt = now
	}
	g.estimateLocked(g.lastAt)
	if lag := g.flushHorizon.Sub(g.lastAt); lag > 0 {
		g.gLag.Set(int64(lag))
	} else {
		g.gLag.Set(0)
	}

	factor := g.factorLocked(g.lastAt)
	if factor < 0 {
		// Below the ramp: unlimited. The bucket stays full so the
		// first writes inside the ramp start from a whole burst.
		g.rate = 0
		g.tokens = float64(g.cfg.BurstBytes)
		g.publishLocked()
		g.admitted.Add(bytes)
		return 0
	}
	rate := g.drainRate * factor
	if lag := g.flushHorizon.Sub(g.lastAt); lag > 0 && g.cfg.FillBytes > 0 {
		// Pace the fill to outlast the lag (see Config.FillBytes).
		if cap := float64(g.cfg.FillBytes) / (4 * lag.Seconds()); rate > cap {
			rate = cap
		}
	}
	if max := float64(g.cfg.MaxRateBytesPerSec); max > 0 && rate > max {
		rate = max
	}
	// The floor wins last: no estimate or cap may wedge writers.
	if min := float64(g.cfg.MinRateBytesPerSec); rate < min {
		rate = min
	}
	g.rate = rate

	tokensAfter := g.tokens - float64(bytes)
	if tokensAfter >= 0 {
		g.tokens = tokensAfter
		g.publishLocked()
		g.admitted.Add(bytes)
		return 0
	}
	g.tokens = tokensAfter
	if g.tokens < -float64(g.cfg.BurstBytes) {
		// Clamp the deficit so a capped delay under sustained
		// saturation doesn't bank unbounded debt against the moment
		// pressure clears.
		g.tokens = -float64(g.cfg.BurstBytes)
	}
	delay := vclock.Duration(-tokensAfter / rate * 1e9)
	if delay > g.cfg.MaxDelay {
		delay = g.cfg.MaxDelay
	}
	g.paced.Inc()
	g.pacingNs.AddDuration(delay)
	g.admitted.Add(bytes)
	g.publishLocked()
	return delay
}

// rateLocked is the refill rate for elapsed-time accounting: the
// admitted rate while limiting, or the burst-refill default when
// unlimited (so an idle bucket recovers instantly anyway via the
// factor<0 branch).
func (g *Governor) rateLocked() float64 {
	if g.rate > 0 {
		return g.rate
	}
	return float64(g.cfg.MinRateBytesPerSec)
}

// factorLocked maps the published debt onto the admitted-rate
// multiplier: <0 for "unlimited", else [minFactor, maxFactor]. Two
// debt axes feed it — the leveled L0 file count (the classic RocksDB
// signal, dominant with async compaction) and the flush-horizon lag
// (dominant in sync mode, where inline compaction keeps L0 low and
// all pressure surfaces as the memtable-rotation wait) — and the
// tighter factor wins.
func (g *Governor) factorLocked(now vclock.Time) float64 {
	f := -1.0
	if g.l0Files >= g.cfg.RampStart {
		f = g.rampLocked(float64(g.l0Files-g.cfg.RampStart) / float64(g.cfg.RampStop-g.cfg.RampStart))
	}
	if lag := g.flushHorizon.Sub(now); lag > 0 {
		frac := float64(lag) / float64(flushLagRef)
		lf := g.rampLocked(frac)
		if frac > 1 {
			// Past the reference lag the factor keeps falling, from
			// minFactor at 1× to zero at 2× — the admitted rate
			// degrades all the way to the MinRate floor, because a
			// background this far behind means the drain estimate
			// itself is stale-high.
			lf = minFactor * (2 - frac)
			if lf < 0 {
				lf = 0
			}
		}
		if f < 0 || lf < f {
			f = lf
		}
	}
	return f
}

// rampLocked interpolates the factor over one debt axis, frac in
// [0, 1] clamped.
func (g *Governor) rampLocked(frac float64) float64 {
	if frac > 1 {
		frac = 1
	}
	return maxFactor - frac*(maxFactor-minFactor)
}

// estimateLocked re-samples the drain counter once per
// EstimateInterval of virtual time and folds the instantaneous rate
// into the EWMA.
func (g *Governor) estimateLocked(now vclock.Time) {
	if !g.estPrimed {
		g.estPrimed = true
		g.lastEstAt = now
		g.lastDrained = g.drain()
		return
	}
	dt := now.Sub(g.lastEstAt)
	if dt < g.cfg.EstimateInterval {
		return
	}
	b := g.drain()
	inst := float64(b-g.lastDrained) / dt.Seconds()
	if g.drainRate == 0 {
		g.drainRate = inst
	} else {
		g.drainRate = 0.5*g.drainRate + 0.5*inst
	}
	g.lastEstAt = now
	g.lastDrained = b
}

func (g *Governor) publishLocked() {
	g.gRate.Set(int64(g.rate))
	g.gDrain.Set(int64(g.drainRate))
	g.gTokens.Set(int64(g.tokens))
}

// String renders the governor's registry gauges and counters as the
// doctor report's governor section body.
func (g *Governor) String() string {
	if g == nil {
		return "(admission governor off)\n"
	}
	rate := "unlimited"
	if r := g.gRate.Value(); r > 0 {
		rate = fmt.Sprintf("%d B/s", r)
	}
	return fmt.Sprintf(
		"admitted rate: %s (drain estimate %d B/s)\n"+
			"debt: %d L0 files, %d bytes, flush lag %v; bucket %d bytes\n"+
			"paced writes: %d (total %v); L0 preempts: %d\n",
		rate, g.gDrain.Value(),
		g.gL0.Value(), g.gDebtBytes.Value(), vclock.Duration(g.gLag.Value()), g.gTokens.Value(),
		g.paced.Value(), g.pacingNs.Duration(), g.preempts.Value())
}
