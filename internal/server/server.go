// Package server is noblsm's multi-shard network front-end: one
// process running N fully independent DB shards — each with its own
// simulated SSD, ext4 journal, WAL, memtable, compaction worker and
// metrics registry — behind a consistent-hash router, speaking the
// length-prefixed binary protocol of internal/server/wire over TCP.
//
// The scaling argument is the paper's own, applied one level up: a
// single LSM-tree serializes on its WAL, its memtable swap and its
// journal commits, so once the engine's write path is concurrent
// (group commit, PR 2) the per-tree pipeline itself becomes the
// bottleneck. Shards are entirely share-nothing — no cross-shard
// locks, no shared files, no shared device queue — so aggregate
// throughput scales with the shard count until the host runs out of
// cores (wall-clock) or the workload stops being device-bound
// (virtual time).
//
// Concurrency model: each connection is one goroutine that decodes
// frames in arrival order, executes each against the owning shard,
// and writes responses back in the same order (pipelining, the Redis
// model). Cross-connection concurrency — thousands of connections
// multiplexing onto a shard's group-commit queue and batching into
// single WAL appends — is where parallelism comes from; a single
// connection's pipeline is FIFO by design.
//
// Virtual time: every connection owns one timeline per shard, seeded
// from the shard's high-water mark, so device service times, journal
// commits and group-commit stalls are charged exactly as the
// experiment harness charges them. Wall-clock behaviour is unchanged
// by the clocks (they never sleep); they exist so a loopback benchmark
// can report the aggregate throughput the paper's hardware would
// sustain, per shard, alongside the wall-clock numbers.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/histogram"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/server/route"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

// Options configure a server.
type Options struct {
	// Shards is the number of independent DB shards (default 1).
	Shards int
	// Variant selects the engine policy every shard runs as (default
	// NobLSM).
	Variant policy.Variant
	// Engine is the per-shard engine configuration BEFORE the variant
	// policy is applied (the harness convention). The zero value uses
	// engine defaults. Each shard perturbs Seed by its index so
	// skiplist shapes differ across shards.
	Engine engine.Options
	// Device is the per-shard simulated SSD (zero value: PM883, the
	// paper's device). Benchmarks pass harness.ScaledDevice so device
	// latencies match the scaled geometry.
	Device ssd.Config
	// CommitInterval is each shard's ext4 journal commit period; zero
	// follows Engine.PollInterval (the paper aligns the two).
	CommitInterval vclock.Duration
}

// shard is one independent DB stack plus its admin lock.
type shard struct {
	id   int
	dev  *ssd.Device
	fs   *ext4.FS
	reg  *obs.Registry
	opts engine.Options // post-policy, shard-seeded

	// mu guards db against administrative Close/Reopen. Requests hold
	// it shared for their whole execution, so an admin close waits for
	// in-flight operations and never yanks the engine out from under
	// one.
	mu sync.RWMutex
	db *engine.DB

	// vmax is the shard's virtual high-water mark: the furthest any
	// connection's timeline has advanced. New timelines start here, and
	// the STATS frame reports it as the shard's virtual_sec.
	vmax atomic.Int64

	// Cumulative per-op virtual latency; backs the STATS frame.
	latMu  sync.Mutex
	latCum histogram.Histogram

	ops *obs.Counter // server.shard_requests, cumulative
}

// vnow reports the shard's virtual high-water mark.
func (sh *shard) vnow() vclock.Time { return vclock.Time(sh.vmax.Load()) }

// noteTime raises the high-water mark to t.
func (sh *shard) noteTime(t vclock.Time) {
	for {
		cur := sh.vmax.Load()
		if int64(t) <= cur || sh.vmax.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// finishOp records one completed operation's virtual latency.
func (sh *shard) finishOp(start, end vclock.Time) {
	sh.noteTime(end)
	sh.ops.Inc()
	d := end.Sub(start)
	sh.latMu.Lock()
	sh.latCum.Record(d)
	sh.latMu.Unlock()
}

// Server runs the shards and the listener.
type Server struct {
	opts   Options
	ring   *route.Ring
	shards []*shard
	reg    *obs.Registry // server-level metrics (conns, frames)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted  *obs.Counter
	open      *obs.Gauge
	frames    *obs.Counter
	malformed *obs.Counter
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// New provisions the shard stacks. The server owns them until Close.
func New(opts Options) (*Server, error) {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 || opts.Shards > 1024 {
		return nil, fmt.Errorf("server: shard count %d out of range [1,1024]", opts.Shards)
	}
	if opts.Variant == "" {
		opts.Variant = policy.NobLSM
	}
	if opts.Device == (ssd.Config{}) {
		opts.Device = ssd.PM883()
	}
	ring, err := route.New(opts.Shards)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		ring:   ring,
		shards: make([]*shard, opts.Shards),
		reg:    obs.NewRegistry(),
		conns:  make(map[net.Conn]struct{}),
	}
	s.accepted = s.reg.Counter("server.conns_accepted")
	s.open = s.reg.Gauge("server.conns_open")
	s.frames = s.reg.Counter("server.frames")
	s.malformed = s.reg.Counter("server.malformed_frames")

	base := opts.Engine
	if base.Seed == 0 {
		base.Seed = 1
	}
	for i := range s.shards {
		eopts, err := policy.Options(opts.Variant, base)
		if err != nil {
			return nil, err
		}
		// Shards must not share deterministic randomness: identical
		// skiplist towers across shards would be a correlated worst
		// case no real deployment exhibits.
		eopts.Seed = base.Seed + int64(i)*7919
		reg := obs.NewRegistry()
		eopts.Metrics = reg
		sh := &shard{id: i, reg: reg, opts: eopts}
		sh.dev = ssd.NewObserved(opts.Device, reg)
		fsCfg := ext4.DefaultConfig()
		commit := opts.CommitInterval
		if commit == 0 {
			commit = eopts.PollInterval
		}
		if commit > 0 {
			fsCfg.CommitInterval = commit
		}
		sh.fs = ext4.NewObserved(fsCfg, sh.dev, reg, nil)
		sh.ops = reg.Counter("server.shard_requests")
		tl := vclock.NewTimeline(0)
		sh.db, err = engine.Open(tl, sh.fs, eopts)
		if err != nil {
			s.closeShardsUpTo(i)
			return nil, fmt.Errorf("server: opening shard %d: %w", i, err)
		}
		sh.noteTime(tl.Now())
		s.shards[i] = sh
	}
	return s, nil
}

func (s *Server) closeShardsUpTo(n int) {
	for j := 0; j < n; j++ {
		sh := s.shards[j]
		if sh != nil && sh.db != nil {
			_ = sh.db.Close(vclock.NewTimeline(sh.vnow()))
		}
	}
}

// NumShards reports the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Ring exposes the router (shared with clients for tests asserting
// client/server hash agreement).
func (s *Server) Ring() *route.Ring { return s.ring }

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = s.Serve(ln) }()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close. Each connection gets
// one handler goroutine (the pipelining model — see the package
// comment).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Inc()
		s.open.Add(1)
		go s.handleConn(c)
	}
}

// Addr reports the bound listener address, nil before Start/Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close shuts the server down: stop accepting, sever every
// connection, wait for the handlers to drain, then close each shard's
// engine (no implicit sync, as LevelDB). An operation in flight when
// its connection is severed still completes against the engine — the
// handler only notices the dead socket on its next read or write — so
// shard state is always a clean prefix of the acknowledged stream;
// only the un-acked responses are lost, which clients treat as
// retryable.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()

	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.db != nil {
			tl := vclock.NewTimeline(sh.vnow())
			if err := sh.db.Close(tl); err != nil && first == nil {
				first = err
			}
			sh.noteTime(tl.Now())
			sh.db = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// CloseShard administratively closes one shard's engine. Requests
// routed to it fail with StatusShardClosed until ReopenShard; every
// other shard keeps serving. The close waits for the shard's in-flight
// operations.
func (s *Server) CloseShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: shard %d out of range", i)
	}
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.db == nil {
		return fmt.Errorf("server: shard %d already closed", i)
	}
	tl := vclock.NewTimeline(sh.vnow())
	err := sh.db.Close(tl)
	sh.noteTime(tl.Now())
	sh.db = nil
	return err
}

// ReopenShard reopens a shard closed by CloseShard, recovering from
// the shard's (still-mounted) filesystem: MANIFEST replay plus the
// surviving WAL records, exactly like a process restart.
func (s *Server) ReopenShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: shard %d out of range", i)
	}
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.db != nil {
		return fmt.Errorf("server: shard %d already open", i)
	}
	tl := vclock.NewTimeline(sh.vnow())
	db, err := engine.Open(tl, sh.fs, sh.opts)
	if err != nil {
		return err
	}
	sh.noteTime(tl.Now())
	sh.db = db
	return nil
}
