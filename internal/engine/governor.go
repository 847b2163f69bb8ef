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
// disabled), its geometry derived from the engine's own throttling
// thresholds and memtable size.
func (db *DB) newGovernor() *governor.Governor {
	if !db.opts.GovernorEnabled {
		return nil
	}
	cfg := governor.Derive(db.opts.Picker.L0CompactionTrigger, db.opts.L0StopTrigger, db.opts.WriteBufferSize)
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

// admitWrite runs one write of size bytes through the governor and
// pays the pacing delay on the caller's timeline (cause
// admission_pacing). No-op without a governor.
func (db *DB) admitWrite(tl *vclock.Timeline, bytes int64) {
	if delay := db.governor.Admit(tl.Now(), bytes); delay > 0 {
		from := tl.Now()
		tl.Advance(delay)
		db.stall(tl, obs.StallAdmissionPacing, from)
	}
}
