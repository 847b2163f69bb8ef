package harness

// Randomized backup fault sweep.
//
// A BackupSchedule is one seeded experiment against the incremental-
// backup path: a NobLSM primary runs a fillrandom workload in phases,
// and after each phase an incremental backup is taken into one reused
// backup directory through the primary's fault-injection mount, so the
// export's reads, writes and opens see transient errors. The fault
// plane is armed only around the backups: the primary's own write path
// is the fault-schedule explorer's subject; this sweep aims every
// injected fault at the export.
//
// The invariants validated per schedule:
//
//	zero acked-write loss   the primary serves every acked put at its
//	                        last acked round, and nothing else;
//	restore ≡ repair        the last incremental backup — taken after
//	                        the last write, over whatever earlier failed
//	                        attempts left in the directory — restores
//	                        through the repair path with nothing
//	                        quarantined and exactly the primary's
//	                        contents.

import (
	"fmt"
	"math/rand"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// BackupSchedule is one seeded backup experiment.
type BackupSchedule struct {
	Seed      int64
	Ops       int64
	ValueSize int
	Phases    int
	Rules     []vfs.Rule
}

// BackupReport summarizes one schedule run.
type BackupReport struct {
	Schedule   BackupSchedule
	Injected   int64 // faults the plane actually fired
	Backups    int   // successful incremental backups
	BackupTrys int   // backup attempts that hit a transient fault
}

func (r BackupReport) String() string {
	return fmt.Sprintf("seed=%d ops=%d rules=%d injected=%d backups=%d(retries=%d)",
		r.Schedule.Seed, r.Schedule.Ops, len(r.Schedule.Rules), r.Injected,
		r.Backups, r.BackupTrys)
}

// NewBackupSchedule derives a schedule from its seed: a random subset
// of transient fault rules aimed at the export's reads, writes and opens.
func NewBackupSchedule(seed int64) BackupSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := BackupSchedule{
		Seed:      seed,
		Ops:       1000 + rng.Int63n(600),
		ValueSize: 256,
		Phases:    4 + rng.Intn(3),
	}
	pool := []func() vfs.Rule{
		func() vfs.Rule {
			// The export reads the active WAL's acked prefix back from
			// the primary mount.
			return vfs.Rule{Op: vfs.OpRead, Kind: vfs.KindError, Transient: true,
				P: 0.02 + 0.08*rng.Float64(), Count: 1 + rng.Intn(12)}
		},
		func() vfs.Rule {
			// The export writes the manifest snapshot, CURRENT and the
			// WAL prefix copy.
			return vfs.Rule{Op: vfs.OpWrite, Kind: vfs.KindError, Transient: true,
				P: 0.01 + 0.04*rng.Float64(), Count: 1 + rng.Intn(6)}
		},
		func() vfs.Rule {
			return vfs.Rule{Op: vfs.OpOpen, Kind: vfs.KindError, Transient: true,
				P: 0.01 + 0.03*rng.Float64(), Count: 1 + rng.Intn(4)}
		},
	}
	n := 1 + rng.Intn(len(pool))
	for i := 0; i < n; i++ {
		s.Rules = append(s.Rules, pool[rng.Intn(len(pool))]())
	}
	return s
}

// Run executes the schedule; a non-nil error is an invariant
// violation or an unrecovered degradation.
func (s BackupSchedule) Run() (rep BackupReport, err error) {
	rep = BackupReport{Schedule: s}

	base := ScaledOptions(s.Ops, s.ValueSize, PaperTable64MB)
	opts, err := policy.Options(policy.NobLSM, base)
	if err != nil {
		return rep, err
	}
	fsCfg := ext4.DefaultConfig()
	fsCfg.CommitInterval = base.PollInterval
	inner := ext4.New(fsCfg, ssd.New(ScaledDevice(base)))
	mount, ctl := vfs.NewFaultFS(inner, s.Seed)
	ctl.SetEnabled(false)
	for _, r := range s.Rules {
		ctl.AddRule(r)
	}
	defer func() { rep.Injected = ctl.Stats().Injected }()

	tl := vclock.NewTimeline(0)
	db, err := engine.Open(tl, mount, opts)
	if err != nil {
		return rep, fmt.Errorf("open: %w", err)
	}
	defer db.Close(tl)

	// backup takes one incremental backup into the reused directory,
	// retrying transient faults the way a real backup daemon would.
	backup := func() error {
		for attempt := 0; ; attempt++ {
			_, err := db.Backup(tl, "bk")
			if err == nil {
				rep.Backups++
				return nil
			}
			if !vfs.IsTransient(err) || attempt >= 8 {
				return err
			}
			rep.BackupTrys++
			tl.Advance(vclock.Duration(1+attempt) * vclock.Millisecond)
		}
	}

	gen := dbbench.NewGenerator(dbbench.FillRandom, s.Ops, s.Seed)
	latest := map[int64]int{}
	var buf []byte
	perPhase := s.Ops / int64(s.Phases)
	for phase := 0; phase < s.Phases; phase++ {
		for i := int64(0); i < perPhase; i++ {
			k, done := gen.Next()
			if done {
				break
			}
			round := latest[k] + 1
			buf = dbbench.Value(buf, k, round, s.ValueSize)
			if err := db.Put(tl, dbbench.Key(k), buf); err != nil {
				return rep, fmt.Errorf("phase %d put: %w", phase, err)
			}
			latest[k] = round
		}
		// The backup runs under an armed plane: this is where the
		// schedule's whole fault budget is spent.
		ctl.SetEnabled(true)
		err := backup()
		ctl.SetEnabled(false)
		if err != nil {
			return rep, fmt.Errorf("phase %d backup: %w", phase, err)
		}
	}

	// The primary serves every acked put at its last acked round and
	// nothing else.
	want := make(map[string]string, len(latest))
	for k, round := range latest {
		buf = dbbench.Value(buf, k, round, s.ValueSize)
		want[string(dbbench.Key(k))] = string(buf)
	}
	if err := compareContents(tl, db, want, "primary"); err != nil {
		return rep, err
	}

	// Restore the last backup through the repair path: nothing
	// quarantined, contents exactly the primary's at the cut — which
	// is the primary's current state, since the backup was taken after
	// the last write.
	rrep, err := engine.RestoreBackup(tl, mount, "bk", "rst", opts)
	if err != nil {
		return rep, fmt.Errorf("restore: %w", err)
	}
	if len(rrep.Quarantined) > 0 {
		return rep, fmt.Errorf("restore quarantined %d tables", len(rrep.Quarantined))
	}
	rdb, err := engine.Open(tl, vfs.NewPrefix(mount, "rst"), opts)
	if err != nil {
		return rep, fmt.Errorf("opening restore: %w", err)
	}
	err = compareContents(tl, rdb, want, "restored backup")
	if cerr := rdb.Close(tl); err == nil && cerr != nil {
		err = cerr
	}
	return rep, err
}
