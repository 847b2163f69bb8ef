package main

import (
	"fmt"

	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/harness"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// stack is one provisioned store: simulated SSD, ext4 journal, engine.
// It is assembled here, from the same public constructors
// harness.NewStoreFaulted uses, because the harness has no hook for
// interposing a filesystem and the traced run needs one.
type stack struct {
	opts  engine.Options // after policy.Options and the sinks
	reg   *obs.Registry
	fs    *ext4.FS
	mount vfs.FS // fs, or the tracedFS around it
	db    *engine.DB
	// tl is the store's own timeline: Open, preload, quiescing and
	// crashes run on it, and every phase's clients start from it.
	tl *vclock.Timeline
}

// newStack builds a fresh stack for a variant. The journal's commit
// interval follows the engine's poll interval, as in harness.NewStore
// (the paper aligns the two, §4.3). With a tracer the filesystem is
// wrapped and the telemetry plane is switched on through the engine's
// existing sinks.
func newStack(v policy.Variant, base engine.Options, tr *tracer) (*stack, error) {
	opts, err := policy.Options(v, base)
	if err != nil {
		return nil, err
	}
	s := &stack{reg: obs.NewRegistry(), tl: vclock.NewTimeline(0)}
	opts.Metrics = s.reg
	if tr != nil {
		opts.Telemetry = obs.NewTelemetry(s.reg, base.PollInterval, 0)
	}
	s.opts = opts
	dev := ssd.NewObserved(harness.ScaledDevice(base), s.reg)
	cfg := ext4.DefaultConfig()
	if base.PollInterval > 0 {
		cfg.CommitInterval = base.PollInterval
	}
	s.fs = ext4.NewObserved(cfg, dev, s.reg, nil)
	s.mount = s.fs
	if tr != nil {
		s.mount = &tracedFS{inner: s.fs, tr: tr}
	}
	s.db, err = engine.Open(s.tl, s.mount, s.opts)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return s, nil
}

// quiesce waits for background work on the virtual clock and commits
// the journal, so device counters cover everything the phase caused.
func (s *stack) quiesce() {
	s.db.WaitBackground(s.tl)
	s.fs.ForceCommit(s.tl)
}

// crashReopen cuts power at the store's current instant and recovers.
func (s *stack) crashReopen() error {
	s.fs.Crash(s.tl.Now())
	db, err := engine.Open(s.tl, s.mount, s.opts)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	s.db = db
	return nil
}

// fsBytes sums the sizes of the files on the simulated filesystem.
// Shadow predecessors NobLSM retains are files like any other, so they
// are included.
func (s *stack) fsBytes() (total int64) {
	// A throwaway timeline: List charges a page-cache access to its
	// caller, and the store's clock must not move for a measurement.
	tl := vclock.NewTimeline(s.tl.Now())
	for _, name := range s.fs.List(tl) {
		n, err := s.fs.Size(tl, name)
		if err != nil {
			continue // removed between List and Size by a tracker poll
		}
		total += n
	}
	return total
}

// liveTableBytes sums the SSTables of the current version.
func (s *stack) liveTableBytes() int64 {
	var n int64
	v := s.db.Version()
	for _, level := range v.Files {
		for _, f := range level {
			n += f.Size
		}
	}
	return n
}
