package harness

// Randomized fault-schedule explorer.
//
// A FaultSchedule is one seeded robustness experiment: a NobLSM store
// is driven through a write-heavy workload while the vfs fault plane
// injects survivable faults (transient read/write/sync errors, short
// and torn WAL appends), optionally followed by at-rest bit rot of a
// live compaction successor whose shadow predecessors are still
// retained, or by a power cut. The schedule then validates, with the
// one checker of contract.go, the two invariants the robustness work
// claims:
//
//	zero acked-write loss   every Put that returned nil is served with
//	                        exactly its last acknowledged value (after
//	                        a crash, at no older a round than the cut
//	                        horizon allows);
//	full read availability  every Get succeeds — transient faults are
//	                        retried, corrupt successors are healed from
//	                        their retained predecessors, never surfaced.
//
// Validation order matters. The corruption scenario scrubs (and so
// heals) immediately after the bit flip, while the heal HealableSuccessors
// found still holds: point Gets would do seek accounting and could
// trigger a compaction that reshapes the damaged region first, and the
// heal, planned again over that history, may then be refused. Then
// point Gets run with the fault plane still armed (transient-retry
// behaviour fires here), then a second scrub and an end-to-end
// iterator scan with the plane quiesced (the iterator has no retry
// wrapper, and the scrub directly precedes it so any remaining
// corruption has been healed or surfaced). Crashes are final-phase
// only and the plane is disarmed around Open: recovery hardening is
// the crash-point sweep's subject, not this explorer's.

import (
	"fmt"
	"math/rand"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// FaultSchedule is one seeded fault-injection experiment.
type FaultSchedule struct {
	Seed      int64
	Ops       int64
	ValueSize int
	Rules     []vfs.Rule
	// Corrupt flips a bit, after the workload, in a live successor
	// table a heal would roll back (HealableSuccessors) — the
	// predecessor-repair scenario. Mutually exclusive with Crash: an
	// unhealed corruption carried across a crash is unrecoverable by
	// design (only the in-memory tracker retains the shadows a heal
	// needs), so one schedule explores one or the other.
	Corrupt bool
	// Crash power-cuts the store after the workload and checks the
	// recovered state at the cut's horizon.
	Crash bool
}

// FaultReport summarizes one schedule run.
type FaultReport struct {
	Schedule    FaultSchedule
	Injected    int64 // faults the plane actually fired
	Healed      int64 // reads served via predecessor rollback
	Quarantined int64 // corrupt successors renamed .corrupt
	ReadOnly    bool  // a permanent background error occurred
	CorruptedAt uint64
}

func (r FaultReport) String() string {
	return fmt.Sprintf("seed=%d ops=%d rules=%d injected=%d healed=%d quarantined=%d corrupt=%v(target=%06d) crash=%v readonly=%v",
		r.Schedule.Seed, r.Schedule.Ops, len(r.Schedule.Rules), r.Injected,
		r.Healed, r.Quarantined, r.Schedule.Corrupt, r.CorruptedAt, r.Schedule.Crash, r.ReadOnly)
}

// NewFaultSchedule derives a schedule from its seed: a random subset
// of the survivable fault pool plus one of the three final phases
// (none / at-rest successor corruption / power cut).
func NewFaultSchedule(seed int64) FaultSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := FaultSchedule{
		Seed:      seed,
		Ops:       1200 + rng.Int63n(800),
		ValueSize: 256,
	}
	switch rng.Intn(3) {
	case 0:
		s.Corrupt = true
		// The corruption scenario needs several major compactions'
		// worth of data so a healable plan exists when it fires.
		s.Ops += 1200
	case 1:
		s.Crash = true
	}

	// The survivable pool. Everything is bounded (Count) so a
	// schedule's fault budget cannot outlast the retry budgets of the
	// paths it exercises, and transient so the background-error
	// machine retries instead of going read-only.
	pool := []func() vfs.Rule{
		func() vfs.Rule {
			return vfs.Rule{Op: vfs.OpRead, Kind: vfs.KindError, Transient: true,
				P: 0.002 + 0.01*rng.Float64(), Count: 1 + rng.Intn(20)}
		},
		func() vfs.Rule {
			return vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpWrite, Kind: vfs.KindError,
				Transient: true, P: 0.001 + 0.004*rng.Float64(), Count: 1 + rng.Intn(8)}
		},
		func() vfs.Rule {
			return vfs.Rule{Class: vfs.ClassWAL, Op: vfs.OpWrite, Kind: vfs.KindError,
				Transient: true, P: 0.002 + 0.004*rng.Float64(), Count: 1 + rng.Intn(4)}
		},
		func() vfs.Rule {
			return vfs.Rule{Class: vfs.ClassWAL, Op: vfs.OpWrite, Kind: vfs.KindShortWrite,
				Transient: true, P: 0.004, Count: 1 + rng.Intn(3)}
		},
		func() vfs.Rule {
			return vfs.Rule{Class: vfs.ClassWAL, Op: vfs.OpWrite, Kind: vfs.KindTornWrite,
				Transient: true, P: 0.004, Count: 1 + rng.Intn(3)}
		},
		func() vfs.Rule {
			return vfs.Rule{Op: vfs.OpSync, Kind: vfs.KindError, Transient: true,
				P: 0.01 + 0.02*rng.Float64(), Count: 1 + rng.Intn(4)}
		},
		func() vfs.Rule {
			return vfs.Rule{Class: vfs.ClassManifest, Op: vfs.OpWrite, Kind: vfs.KindError,
				Transient: true, P: 0.004, Count: 1 + rng.Intn(2)}
		},
	}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		s.Rules = append(s.Rules, pool[rng.Intn(len(pool))]())
	}
	return s
}

// Run executes the schedule and returns its report; a non-nil error is
// an invariant violation (acked-write loss, read unavailability, or a
// corrupt scan).
func (s FaultSchedule) Run() (rep FaultReport, err error) {
	rep = FaultReport{Schedule: s}
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))

	base := ScaledOptions(s.Ops, s.ValueSize, PaperTable64MB)
	// The journal commit cadence must track the scaled poll interval
	// (the NewStore contract): with a slower journal, far more than the
	// WAL-tail window is volatile at a power cut.
	commit := base.PollInterval
	if s.Corrupt {
		// Keep every compaction dependency unresolved so shadow
		// predecessors stay retained for the repair.
		base.PollInterval = vclock.Duration(1) << 50
	}
	tl := vclock.NewTimeline(0)
	st, err := newStack(tl, policy.NobLSM, base, commit, obs.Sink{}, mountFault, s.Seed, nil)
	if err != nil {
		return rep, fmt.Errorf("open: %w", err)
	}
	fs, db, ctl := st.FS, st.DB, st.Faults
	// Snapshot the observability counters on every exit path so a
	// failing schedule still reports what actually happened.
	defer func() {
		rep.Injected = ctl.Stats().Injected
		rep.Healed = st.Metrics.Counter("engine.reads_healed").Value()
		rep.Quarantined = st.Metrics.Counter("engine.tables_quarantined").Value()
	}()
	for _, r := range s.Rules {
		ctl.AddRule(r)
	}
	ctl.SetEnabled(true)

	// Workload: fillrandom under the armed plane (a failed put — an
	// injected WAL failure, read-only mode — is not acked), reading a
	// random acked key back every seventh op.
	w := &workload{valueSize: s.ValueSize, gen: dbbench.NewGenerator(dbbench.FillRandom, s.Ops, s.Seed),
		readBack: rng, lossy: true}
	if err := w.run(tl, db, s.Ops); err != nil {
		return rep, err
	}
	rep.ReadOnly = db.ReadOnly()

	// Final phase A: at-rest bit rot of a healable successor, detected
	// and repaired by an immediate scrub. The scrub must come before
	// any point Gets: the heal is only known to be allowed right now —
	// a read-triggered (seek) compaction can reshape the region first,
	// and a heal planned over that history may have to undo what it
	// cannot, a flush, and surface the corruption instead. Scrub reads
	// do no seek accounting, so nothing changes the history before the
	// corrupt block is reached.
	if s.Corrupt && !db.ReadOnly() {
		if cands := db.HealableSuccessors(); len(cands) > 0 {
			num := cands[rng.Intn(len(cands))]
			name := engine.TableName(num)
			if size, err := fs.Size(tl, name); err == nil && size > 0 {
				// Land in the data-block region (the index and footer
				// sit at the tail).
				off := int64(float64(size) * (0.1 + 0.5*rng.Float64()))
				if err := fs.CorruptAt(name, off); err != nil {
					return rep, err
				}
				rep.CorruptedAt = num
				// Drop the cached clean copies so reads see the rotten
				// medium, then let the scrub's read path trip the CRC
				// check and heal from the retained predecessors. The
				// plane is quiesced for this scrub: a whole-store scan
				// restarts on every transient fault, so probabilistic
				// read errors could outlast its retry budget — injected
				// transients are the point-Get pass's subject, at-rest
				// rot is this one's.
				db.EvictTable(tl, num)
				ctl.SetEnabled(false)
				if _, err := db.ScrubTables(tl); err != nil {
					return rep, fmt.Errorf("scrub after corruption: %w", err)
				}
				ctl.SetEnabled(true)
			}
		}
	}

	if s.Crash {
		// Final phase B: power cut, checked at its horizon. The plane is
		// disarmed around recovery — crash hardening is the crash-point
		// sweep's job.
		ctl.SetEnabled(false)
		_, _, err := w.powerCut(tl, st, horizon(tl.Now(), commit))
		return rep, err
	}

	// Exact, point reads first with the plane still armed — self-
	// healing reads and transient-retry behaviour fire here — then,
	// plane quiesced, a scrub and the end-to-end scan.
	_, _, err = w.check(tl, db, exact, func() error {
		ctl.SetEnabled(false)
		if _, err := db.ScrubTables(tl); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	if err := db.Close(tl); err != nil && !rep.ReadOnly {
		return rep, fmt.Errorf("close: %w", err)
	}
	return rep, nil
}
