package engine

// Admission-control integration (Options.GovernorEnabled): the
// internal/governor token bucket is wired between the public Write
// entry point and the group-commit queue. Every writer charges its
// batch bytes BEFORE enqueueing and pays the returned pacing delay on
// its own timeline, so backpressure lands as many small cause-tagged
// ("admission_pacing") delays spread across writers instead of the
// slowdown/stop cliff the leader would otherwise hit in
// makeRoomForWrite. The governor's debt signal (leveled L0 file count
// plus L0 + parked-memtable bytes) is republished on every version
// change, and its drain signal is the compaction.bytes_written
// counter — bytes the background actually retired per virtual second.

import (
	"noblsm/internal/governor"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// newGovernor builds the admission controller for opts (nil when
// disabled), deriving ramp geometry from the engine's own throttling
// thresholds unless the caller pinned them.
func (db *DB) newGovernor() *governor.Governor {
	if !db.opts.GovernorEnabled {
		return nil
	}
	cfg := db.opts.Governor
	if cfg.RampStart <= 0 {
		cfg.RampStart = db.opts.Picker.L0CompactionTrigger
	}
	if cfg.RampStop <= cfg.RampStart {
		cfg.RampStop = db.opts.L0StopTrigger
		if cfg.RampStop <= cfg.RampStart {
			cfg.RampStop = cfg.RampStart + 8
		}
	}
	if cfg.MaxDelay <= 0 {
		// The governor's bounded per-write delay doubles the stock
		// slowdown penalty at worst — but is paid smoothly and only
		// under measured debt, not as a per-group cliff.
		cfg.MaxDelay = 2 * slowdownDelay
	}
	if cfg.FillBytes <= 0 {
		cfg.FillBytes = db.opts.WriteBufferSize
	}
	if cfg.BurstBytes == 0 {
		// Likewise the burst: a quarter memtable (floored at 4 KiB) up
		// to the package default. A 1 MiB bucket in front of a scaled
		// 32 KiB memtable would absorb entire runs without pacing.
		if b := db.opts.WriteBufferSize / 4; b < 1<<20 {
			cfg.BurstBytes = b
			if cfg.BurstBytes < 4<<10 {
				cfg.BurstBytes = 4 << 10
			}
		}
	}
	if cfg.MinRateBytesPerSec == 0 {
		// Scale the safety floor with the geometry — one memtable per
		// second, never below 64 KiB/s. The package default (4 MiB/s)
		// assumes the paper's full-size 64 MB memtable; against a
		// scaled-down buffer it would exceed what the background can
		// actually retire and pin the admitted rate above drain.
		cfg.MinRateBytesPerSec = db.opts.WriteBufferSize
		if cfg.MinRateBytesPerSec < 64<<10 {
			cfg.MinRateBytesPerSec = 64 << 10
		}
	}
	return governor.New(db.reg, func() int64 { return db.m.bytesWritten.Value() }, cfg)
}

// updateGovernorDebt republishes the governor's debt signal. Called
// with db.mu held from publishReadState — the single point every
// version install and memtable rotation already flows through.
func (db *DB) updateGovernorDebt() {
	if db.governor == nil {
		return
	}
	l0 := 0
	var debt int64
	for _, f := range db.current.Files[0] {
		if !f.Hot {
			l0++
			debt += f.Size
		}
	}
	if imm := db.sched.imm; imm != nil {
		debt += imm.ApproximateMemoryUsage()
	}
	db.governor.SetDebt(l0, debt)
}

// admitWrite runs one write of size bytes through the governor: pay
// the pacing delay on the caller's timeline (cause admission_pacing),
// or — when the implied wait exceeds Options.WriteStallDeadline —
// wait out the deadline and fail with ErrWriteStalled so the caller
// sheds load. No-op without a governor.
func (db *DB) admitWrite(tl *vclock.Timeline, bytes int64) error {
	if db.governor == nil {
		return nil
	}
	delay, ok := db.governor.Admit(tl.Now(), bytes, db.opts.WriteStallDeadline)
	from := tl.Now()
	if delay > 0 {
		tl.Advance(delay)
	}
	if !ok {
		db.stall(tl, obs.StallWriteStalled, from)
		return ErrWriteStalled
	}
	if delay > 0 {
		db.stall(tl, obs.StallAdmissionPacing, from)
	}
	return nil
}

// boundedWait is makeRoomForWrite's deadline-aware WaitUntil: without
// a governed deadline it waits to target and records the stall under
// cause; with one, a wait that would overshoot the remaining budget is
// truncated at the deadline and fails with ErrWriteStalled — the
// backstop fail-fast for the hard rotation/backlog waits the pacing
// loop normally keeps writers away from.
func (db *DB) boundedWait(tl *vclock.Timeline, target vclock.Time, cause obs.StallCause, kvs ...obs.KV) error {
	from := tl.Now()
	deadline := db.opts.WriteStallDeadline
	if db.governor != nil && deadline > 0 && target.Sub(from) > deadline {
		tl.Advance(deadline)
		// The truncated wait was a rotation wait all the same.
		db.m.rotationNs.AddDuration(deadline)
		db.governor.NoteShed()
		db.stall(tl, obs.StallWriteStalled, from, obs.KV{K: "deadline_exceeded", V: cause.String()})
		return ErrWriteStalled
	}
	if tl.WaitUntil(target) > 0 {
		db.stall(tl, cause, from, kvs...)
	}
	return nil
}

// GovernorStats reports the admission controller's counters (zero
// when the governor is off).
func (db *DB) GovernorStats() governor.Stats {
	return db.governor.Snapshot()
}
