// Package ssd models a solid-state drive as a single-queue server in
// virtual time. The model captures the two properties the NobLSM paper
// depends on:
//
//   - bandwidth and per-request latency: a request of n bytes arriving
//     at virtual time t starts service at max(t, device-free-at) and
//     completes after latency + n/bandwidth;
//   - barrier semantics of flush (FLUSH/FUA as issued by fsync): a
//     flush waits for every queued request to drain and then charges
//     the flush latency, so a sync stalls all subsequent I/O.
//
// The default parameters are calibrated so that the raw write study of
// the paper (Figure 2a) reproduces: buffered (page-cache) writes are
// an order of magnitude faster than direct writes, and per-file fsync
// adds roughly a millisecond of barrier cost on top of direct I/O.
package ssd

import (
	"sync"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// Config holds the device service parameters.
type Config struct {
	// ReadLatency is the fixed setup cost of a read request.
	ReadLatency vclock.Duration
	// WriteLatency is the fixed setup cost of a write request.
	WriteLatency vclock.Duration
	// FlushLatency is the cost of a FLUSH barrier after the queue
	// has drained.
	FlushLatency vclock.Duration
	// ReadBandwidth and WriteBandwidth are sustained transfer rates
	// in bytes per (virtual) second.
	ReadBandwidth  int64
	WriteBandwidth int64
}

// PM883 returns parameters approximating the Samsung PM883 960 GB SATA
// SSD used in the paper's evaluation (sequential ~520 MB/s write,
// ~550 MB/s read, sub-millisecond flush).
func PM883() Config {
	return Config{
		ReadLatency:    80 * vclock.Microsecond,
		WriteLatency:   60 * vclock.Microsecond,
		FlushLatency:   900 * vclock.Microsecond,
		ReadBandwidth:  550 << 20,
		WriteBandwidth: 520 << 20,
	}
}

// Device is a shared SSD. All methods are safe for concurrent use;
// requests serialize in FIFO order of their (virtual) submission under
// the internal lock, which is the queue discipline of the model.
type Device struct {
	mu     sync.Mutex
	cfg    Config
	freeAt vclock.Time
	m      devMetrics
}

// devMetrics are the cumulative device counters, resolved once from a
// registry under the "ssd." prefix. They are raw device-side totals;
// sync-attributed accounting (the paper's Table 1) lives in the ext4
// layer, which knows why a write reached the device. busy_ns is the
// virtual time spent servicing requests, for utilization reporting.
type devMetrics struct {
	reads, writes, flushes  *obs.Counter
	bytesRead, bytesWritten *obs.Counter
	busyNs                  *obs.Counter
}

func newDevMetrics(r *obs.Registry) devMetrics {
	return devMetrics{
		reads:        r.Counter("ssd.reads"),
		writes:       r.Counter("ssd.writes"),
		flushes:      r.Counter("ssd.flushes"),
		bytesRead:    r.Counter("ssd.bytes_read"),
		bytesWritten: r.Counter("ssd.bytes_written"),
		busyNs:       r.Counter("ssd.busy_ns"),
	}
}

// New returns a device with the given parameters, publishing its
// counters into a private registry.
func New(cfg Config) *Device { return NewObserved(cfg, nil) }

// NewObserved returns a device that registers its counters into r
// (nil: a private registry).
func NewObserved(cfg Config, r *obs.Registry) *Device {
	if cfg.ReadBandwidth <= 0 || cfg.WriteBandwidth <= 0 {
		panic("ssd: bandwidth must be positive")
	}
	if r == nil {
		r = obs.NewRegistry()
	}
	return &Device{cfg: cfg, m: newDevMetrics(r)}
}

// Config returns the device parameters.
func (d *Device) Config() Config { return d.cfg }

func transfer(n, bw int64) vclock.Duration {
	if n <= 0 {
		return 0
	}
	return vclock.Duration(n * int64(vclock.Second) / bw)
}

// Write submits a write of n bytes at virtual time at and returns the
// completion time. The caller decides whether to wait for completion
// (direct or sync writes) or to ignore it (background writeback).
func (d *Device) Write(at vclock.Time, n int64) vclock.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := vclock.Max(at, d.freeAt)
	dur := d.cfg.WriteLatency + transfer(n, d.cfg.WriteBandwidth)
	d.freeAt = start.Add(dur)
	d.m.writes.Inc()
	d.m.bytesWritten.Add(n)
	d.m.busyNs.AddDuration(dur)
	return d.freeAt
}

// Read submits a read of n bytes at virtual time at and returns the
// completion time.
func (d *Device) Read(at vclock.Time, n int64) vclock.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := vclock.Max(at, d.freeAt)
	dur := d.cfg.ReadLatency + transfer(n, d.cfg.ReadBandwidth)
	d.freeAt = start.Add(dur)
	d.m.reads.Inc()
	d.m.bytesRead.Add(n)
	d.m.busyNs.AddDuration(dur)
	return d.freeAt
}

// Flush issues a barrier at virtual time at: it waits for all earlier
// requests to drain, then charges the flush latency. The returned time
// is when the barrier completes; every request submitted afterwards
// starts no earlier than that.
func (d *Device) Flush(at vclock.Time) vclock.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := vclock.Max(at, d.freeAt)
	d.freeAt = start.Add(d.cfg.FlushLatency)
	d.m.flushes.Inc()
	d.m.busyNs.AddDuration(d.cfg.FlushLatency)
	return d.freeAt
}
