package governor

import (
	"testing"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// paperConfig is the geometry of a store at the paper's defaults: L0
// compaction trigger 4, stop trigger 12, a 4 MiB memtable.
func paperConfig() Config { return Derive(4, 12, 4<<20) }

func newTest(drain *int64, cfg Config) (*Governor, *obs.Registry) {
	r := obs.NewRegistry()
	return New(r, func() int64 { return *drain }, cfg), r
}

// metric reads a counter or gauge of r by name; a name r does not hold
// fails the test, so a typo cannot read as 0.
func metric(t *testing.T, r *obs.Registry, name string) int64 {
	t.Helper()
	s := r.Snapshot()
	if v, ok := s.Counters[name]; ok {
		return v
	}
	if v, ok := s.Gauges[name]; ok {
		return v
	}
	t.Fatalf("%s is not registered", name)
	return 0
}

// Below the ramp the governor admits everything instantly, whatever
// the bucket saw before.
func TestUnlimitedBelowRamp(t *testing.T) {
	var drained int64
	g, r := newTest(&drained, paperConfig())
	g.SetDebt(0, 0)
	now := vclock.Time(0)
	for i := 0; i < 1000; i++ {
		now = now.Add(vclock.Microsecond)
		if d := g.Admit(now, 1<<20); d != 0 {
			t.Fatalf("write %d: got delay %v, want 0", i, d)
		}
	}
	if got := metric(t, r, "engine.governor.paced_writes"); got != 0 {
		t.Fatalf("paced %d writes below the ramp", got)
	}
}

// Inside the ramp, sustained writes are paced to roughly the admitted
// rate: total virtual delay ≈ bytes/rate, and no single delay exceeds
// MaxDelay.
func TestPacingConvergesToRate(t *testing.T) {
	var drained int64
	cfg := paperConfig()
	cfg.BurstBytes = 64 << 10
	cfg.MinRateBytesPerSec = 1 << 20 // drain estimate will dominate
	cfg.EstimateInterval = 10 * vclock.Millisecond
	g, r := newTest(&drained, cfg)
	// Mid-ramp: factor = maxFactor - 0.5*(maxFactor-minFactor) = 0.75.
	g.SetDebt(8, 1<<20)

	// Simulate a drain of 10 MiB/s by growing the counter as virtual
	// time passes; the writer issues 4 KiB writes back to back,
	// advancing only by the delays the governor returns.
	const drainRate = 10 << 20
	tl := vclock.NewTimeline(0)
	var totalDelay vclock.Duration
	const writeBytes = 4 << 10
	const writes = 4000
	for i := 0; i < writes; i++ {
		drained = int64(float64(tl.Now()) / 1e9 * drainRate)
		d := g.Admit(tl.Now(), writeBytes)
		if d > cfg.MaxDelay {
			t.Fatalf("write %d: delay %v exceeds MaxDelay %v", i, d, cfg.MaxDelay)
		}
		tl.Advance(d + vclock.Microsecond) // 1µs of CPU per write
		totalDelay += d
	}
	if totalDelay == 0 {
		t.Fatal("sustained overload produced no pacing at all")
	}
	// 16 MiB written at an admitted rate of ~7.5 MiB/s ≈ 2.1s. Allow
	// a wide band: the point is "seconds, smoothly", not exactness.
	sec := totalDelay.Seconds()
	if sec < 0.5 || sec > 10 {
		t.Fatalf("total pacing %.2fs outside the plausible band for 16MiB at ~7.5MiB/s", sec)
	}
	paced, admitted := metric(t, r, "engine.governor.paced_writes"), metric(t, r, "engine.governor.admitted_bytes")
	if paced == 0 || admitted != writeBytes*writes {
		t.Fatalf("paced %d, admitted %d: want paced>0 and admitted=%d", paced, admitted, writeBytes*writes)
	}
}

// A saturated bucket charges the write and caps its delay at MaxDelay,
// however deep the deficit: waiting longer is the engine's business.
func TestSaturatedDelayCapped(t *testing.T) {
	var drained int64
	cfg := paperConfig()
	cfg.BurstBytes = 8 << 10
	cfg.MinRateBytesPerSec = 1 << 20
	cfg.MaxDelay = vclock.Millisecond
	g, r := newTest(&drained, cfg)
	g.SetDebt(12, 1<<20) // at the stop: minFactor, rate = floor = 1 MiB/s

	now := vclock.Time(vclock.Second)
	// Drain the burst, then one more write: the deficit (56 KiB at
	// 1 MiB/s ≈ 55 ms) is far past MaxDelay.
	if d := g.Admit(now, 8<<10); d != 0 {
		t.Fatalf("burst write: delay %v", d)
	}
	if d := g.Admit(now, 56<<10); d != cfg.MaxDelay {
		t.Fatalf("saturated write: delay %v, want MaxDelay %v", d, cfg.MaxDelay)
	}
	if admitted, paced := metric(t, r, "engine.governor.admitted_bytes"), metric(t, r, "engine.governor.paced_writes"); admitted != 64<<10 || paced != 1 {
		t.Fatalf("admitted %d, paced %d: want 64 KiB admitted, one paced write", admitted, paced)
	}
}

// The drain estimator tracks the counter across estimate intervals.
func TestDrainEstimate(t *testing.T) {
	var drained int64
	cfg := paperConfig()
	cfg.EstimateInterval = 10 * vclock.Millisecond
	g, r := newTest(&drained, cfg)
	g.SetDebt(8, 0)
	now := vclock.Time(0)
	for i := 0; i < 200; i++ {
		now = now.Add(vclock.Millisecond)
		drained += 20 << 10 // 20 KiB/ms = ~20 MiB/s
		g.Admit(now, 1024)
	}
	got := metric(t, r, "engine.governor.drain_bytes_per_sec")
	want := int64(20 << 20)
	if got < want/2 || got > want*2 {
		t.Fatalf("drain estimate %d, want within 2x of %d", got, want)
	}
}

// A nil governor is inert.
func TestNilGovernor(t *testing.T) {
	var g *Governor
	if d := g.Admit(0, 1<<30); d != 0 {
		t.Fatalf("nil governor: %v", d)
	}
	g.SetDebt(100, 1<<30)
	g.NotePreempt()
	if g.String() == "" {
		t.Fatal("nil String empty")
	}
}

// Derive's geometry for five stores the repository builds, and for a
// stop trigger not above the compaction trigger.
func TestGovernorDerive(t *testing.T) {
	const ms = vclock.Millisecond
	for _, c := range []struct {
		store         string
		trigger, stop int
		writeBuffer   int64
		want          Config
	}{
		{"engine.DefaultOptions", 4, 12, 4 << 20, Config{
			BurstBytes: 1 << 20, MinRateBytesPerSec: 4 << 20, MaxDelay: 2 * ms, EstimateInterval: 50 * ms,
			RampStart: 4, RampStop: 12, FillBytes: 4 << 20}},
		// The engine tests' smallOpts: a 32 KiB memtable.
		{"smallOpts", 4, 12, 32 << 10, Config{
			BurstBytes: 8 << 10, MinRateBytesPerSec: 64 << 10, MaxDelay: 2 * ms, EstimateInterval: 50 * ms,
			RampStart: 4, RampStop: 12, FillBytes: 32 << 10}},
		// The engine tests' governedOpts: smallOpts with trigger 2, stop 8.
		{"governedOpts", 2, 8, 32 << 10, Config{
			BurstBytes: 8 << 10, MinRateBytesPerSec: 64 << 10, MaxDelay: 2 * ms, EstimateInterval: 50 * ms,
			RampStart: 2, RampStop: 8, FillBytes: 32 << 10}},
		// policy.RocksDB over engine.DefaultOptions: stop 36, 4× memtable.
		{"RocksDB preset", 4, 36, 16 << 20, Config{
			BurstBytes: 1 << 20, MinRateBytesPerSec: 16 << 20, MaxDelay: 2 * ms, EstimateInterval: 50 * ms,
			RampStart: 4, RampStop: 36, FillBytes: 16 << 20}},
		// harness.ScaledOptions(50 000, 1024, PaperTable64MB), the
		// overwrite benchmark's store.
		{"overwrite", 4, 12, 335544, Config{
			BurstBytes: 83886, MinRateBytesPerSec: 335544, MaxDelay: 2 * ms, EstimateInterval: 50 * ms,
			RampStart: 4, RampStop: 12, FillBytes: 335544}},
		// A stop trigger not above the compaction trigger ramps over 8
		// files.
		{"stop at trigger", 4, 4, 4 << 20, Config{
			BurstBytes: 1 << 20, MinRateBytesPerSec: 4 << 20, MaxDelay: 2 * ms, EstimateInterval: 50 * ms,
			RampStart: 4, RampStop: 12, FillBytes: 4 << 20}},
	} {
		if got := Derive(c.trigger, c.stop, c.writeBuffer); got != c.want {
			t.Errorf("%s: Derive(%d, %d, %d) = %+v, want %+v", c.store, c.trigger, c.stop, c.writeBuffer, got, c.want)
		}
	}
}
