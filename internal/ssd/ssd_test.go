package ssd

import (
	"testing"
	"testing/quick"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// counter reads a counter of r by name; a name r does not hold fails
// the test, so a typo cannot read as 0.
func counter(t *testing.T, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Counters()[name]
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return v
}

func testConfig() Config {
	return Config{
		ReadLatency:    10 * vclock.Microsecond,
		WriteLatency:   20 * vclock.Microsecond,
		FlushLatency:   1 * vclock.Millisecond,
		ReadBandwidth:  100 << 20,
		WriteBandwidth: 100 << 20,
	}
}

func TestWriteServiceTime(t *testing.T) {
	d := New(testConfig())
	// 100 MiB/s => 1 MiB takes ~10.48 ms plus 20 µs latency.
	done := d.Write(0, 1<<20)
	want := vclock.Time(20*vclock.Microsecond) + vclock.Time((1<<20)*int64(vclock.Second)/(100<<20))
	if done != want {
		t.Fatalf("write completes at %v, want %v", done, want)
	}
}

func TestQueueingDelaysLaterRequests(t *testing.T) {
	d := New(testConfig())
	first := d.Write(0, 10<<20)
	// A request submitted while the device is busy starts when the
	// device frees up, not at its submission time.
	second := d.Write(vclock.Time(1*vclock.Microsecond), 0)
	if second <= first {
		t.Fatalf("queued request completed at %v, not after first at %v", second, first)
	}
	if got, want := second-first, vclock.Time(20*vclock.Microsecond); got != want {
		t.Fatalf("queued zero-byte write took %v, want latency %v", vclock.Duration(got), vclock.Duration(want))
	}
}

func TestIdleDeviceStartsAtSubmission(t *testing.T) {
	d := New(testConfig())
	at := vclock.Time(5 * vclock.Second)
	done := d.Read(at, 0)
	if got, want := done, at.Add(10*vclock.Microsecond); got != want {
		t.Fatalf("idle read completes at %v, want %v", got, want)
	}
}

func TestFlushBarrierDrainsQueue(t *testing.T) {
	d := New(testConfig())
	writeDone := d.Write(0, 50<<20)
	flushDone := d.Flush(0)
	if flushDone != writeDone.Add(1*vclock.Millisecond) {
		t.Fatalf("flush completes at %v, want write completion %v + 1ms", flushDone, writeDone)
	}
	// A write submitted at time zero after the flush cannot start
	// before the barrier completes.
	after := d.Write(0, 0)
	if after < flushDone {
		t.Fatalf("post-barrier write completed at %v, before barrier %v", after, flushDone)
	}
}

func TestStatsAccumulate(t *testing.T) {
	r := obs.NewRegistry()
	d := NewObserved(testConfig(), r)
	d.Write(0, 100)
	d.Write(0, 200)
	d.Read(0, 300)
	d.Flush(0)
	if w, b := counter(t, r, "ssd.writes"), counter(t, r, "ssd.bytes_written"); w != 2 || b != 300 {
		t.Errorf("writes=%d bytes=%d, want 2/300", w, b)
	}
	if n, b := counter(t, r, "ssd.reads"), counter(t, r, "ssd.bytes_read"); n != 1 || b != 300 {
		t.Errorf("reads=%d bytes=%d, want 1/300", n, b)
	}
	if n := counter(t, r, "ssd.flushes"); n != 1 {
		t.Errorf("flushes=%d, want 1", n)
	}
	if busy := counter(t, r, "ssd.busy_ns"); busy <= 0 {
		t.Errorf("busy time %v, want positive", vclock.Duration(busy))
	}
}

func TestPM883Shape(t *testing.T) {
	// The calibration must preserve the paper's Figure 2a ordering:
	// buffered writes are much cheaper than direct writes, which are
	// cheaper than synced writes. Here we check the device-side
	// component: bandwidth-dominated transfers plus barrier costs.
	cfg := PM883()
	d := New(cfg)
	const fileSize = 2 << 20
	const files = 64
	var direct vclock.Time
	for i := 0; i < files; i++ {
		direct = d.Write(direct, fileSize)
	}
	d2 := New(cfg)
	var sync vclock.Time
	for i := 0; i < files; i++ {
		sync = d2.Write(sync, fileSize)
		sync = d2.Flush(sync)
	}
	if sync <= direct {
		t.Fatalf("synced writes (%v) not slower than direct (%v)", sync, direct)
	}
	extra := float64(sync-direct) / float64(direct)
	if extra < 0.1 || extra > 1.0 {
		t.Fatalf("sync overhead %.2f outside plausible [0.1,1.0] band", extra)
	}
}

func TestCompletionMonotonic(t *testing.T) {
	// Property: completion times never regress regardless of request
	// mix and submission times.
	f := func(ops []uint8, sizes []uint16) bool {
		d := New(testConfig())
		var last vclock.Time
		for i, op := range ops {
			var n int64
			if i < len(sizes) {
				n = int64(sizes[i])
			}
			var done vclock.Time
			switch op % 3 {
			case 0:
				done = d.Write(vclock.Time(int64(op))*vclock.Time(vclock.Microsecond), n)
			case 1:
				done = d.Read(0, n)
			default:
				done = d.Flush(0)
			}
			if done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth config did not panic")
		}
	}()
	New(Config{})
}
