package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/obs"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

// pressureDevice is smallDevice with the write bandwidth squeezed so
// flushes genuinely fall behind a sustained overwrite — the regime the
// governor exists for. (smallDevice drains faster than any foreground
// can fill, so rotation pressure never builds.)
func pressureDevice() *ssd.Device {
	cfg := ssd.PM883()
	cfg.ReadLatency = 500 * vclock.Nanosecond
	cfg.WriteLatency = 2 * vclock.Microsecond
	cfg.FlushLatency = 6 * vclock.Microsecond
	cfg.WriteBandwidth = 64 << 20
	return ssd.New(cfg)
}

// governedOpts is smallOpts with the admission governor on and the
// governor's burst scaled to the shrunken memtable, so a modest
// overwrite run builds real flush/L0 debt against the bucket.
func governedOpts(mode SyncMode) Options {
	o := smallOpts(mode)
	o.GovernorEnabled = true
	o.L0SlowdownTrigger = 4
	o.L0StopTrigger = 8
	o.Picker.L0CompactionTrigger = 2
	// smallOpts shrinks the memtable to 32 KiB; the default 1 MiB
	// burst would absorb the whole run without ever pacing. Likewise
	// the default 4 MiB/s floor exceeds pressureDevice's real drain
	// rate, which would keep the admitted rate pinned above what the
	// background can retire.
	o.Governor.BurstBytes = 8 << 10
	o.Governor.MinRateBytesPerSec = 256 << 10
	return o
}

func openGoverned(t *testing.T, o Options) (*DB, *vclock.Timeline) {
	t.Helper()
	fs := ext4.New(smallFSConfig(), pressureDevice())
	tl := vclock.NewTimeline(0)
	reg := obs.NewRegistry()
	o.Metrics = reg
	o.Telemetry = obs.NewTelemetry(reg, 50*vclock.Millisecond, 0)
	db, err := Open(tl, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	return db, tl
}

func hammer(t *testing.T, db *DB, tl *vclock.Timeline, n int) (stalled, applied int) {
	t.Helper()
	val := make([]byte, 512)
	for i := 0; i < n; i++ {
		err := db.Put(tl, []byte(fmt.Sprintf("key%06d", i%2000)), val)
		switch {
		case err == nil:
			applied++
		case errors.Is(err, ErrWriteStalled):
			stalled++
		default:
			t.Fatalf("write %d: %v", i, err)
		}
	}
	return stalled, applied
}

// worstStall is the largest single stall across every cause — the
// quantity the stability gate measures.
func worstStall(led *obs.StallLedger) vclock.Duration {
	var worst vclock.Duration
	for c := 0; c < obs.NumStallCauses; c++ {
		if m := led.MaxNs(obs.StallCause(c)); m > worst {
			worst = m
		}
	}
	return worst
}

// The governor converts the sync-mode rotation cliff (one large
// memtable_full wait when writers slam into the flush horizon) into
// many bounded admission_pacing delays: pacing accumulates, no single
// stall of ANY cause comes near the ungoverned worst case, and each
// pacing delay respects the configured cap.
func TestGovernorPacesInsteadOfCliff(t *testing.T) {
	// Baseline: identical workload, governor off.
	base := governedOpts(SyncNobLSM)
	base.GovernorEnabled = false
	bdb, btl := openGoverned(t, base)
	hammer(t, bdb, btl, 6000)
	baseWorst := worstStall(bdb.tel.Stalls)
	bdb.Close(btl)
	if baseWorst == 0 {
		t.Fatal("ungoverned baseline never stalled — pressure setup broken")
	}

	db, tl := openGoverned(t, governedOpts(SyncNobLSM))
	defer db.Close(tl)
	hammer(t, db, tl, 6000)

	led := db.tel.Stalls
	if n := led.Count(obs.StallAdmissionPacing); n == 0 {
		t.Fatal("no admission_pacing stalls under sustained overwrite")
	}
	if n := led.Count(obs.StallL0Slowdown); n != 0 {
		t.Fatalf("governed run still hit the slowdown cliff %d times", n)
	}
	gs := db.GovernorStats()
	if gs.PacedWrites == 0 || gs.AdmittedBytes == 0 {
		t.Fatalf("governor idle: %+v", gs)
	}
	// Bounded pacing: no single admission delay above the configured
	// (defaulted) 2×SlowdownDelay cap.
	maxDelay := 2 * slowdownDelay
	if m := led.MaxNs(obs.StallAdmissionPacing); m > maxDelay {
		t.Fatalf("max pacing stall %v exceeds cap %v", m, maxDelay)
	}
	// Degrade gracefully: the governed worst-case stall (any cause)
	// is a small fraction of the ungoverned cliff.
	if w := worstStall(led); w > baseWorst/4 {
		t.Fatalf("governed worst stall %v not well below ungoverned %v\nledger:\n%s", w, baseWorst, led)
	}
}

// ErrWriteStalled fires once the implied wait crosses the configured
// deadline, every acked write survives (including across reopen), and
// shed writes were never applied as phantoms.
func TestWriteStallDeadlineFailFast(t *testing.T) {
	o := governedOpts(SyncNobLSM)
	o.WriteStallDeadline = 200 * vclock.Microsecond
	// A tiny bucket and a pinned 1 MiB/s admitted rate saturate the
	// governor deterministically.
	o.Governor.BurstBytes = 4 << 10
	o.Governor.MinRateBytesPerSec = 1 << 20
	o.Governor.MaxRateBytesPerSec = 1 << 20
	fs := ext4.New(smallFSConfig(), pressureDevice())
	tl := vclock.NewTimeline(0)
	reg := obs.NewRegistry()
	o.Metrics = reg
	o.Telemetry = obs.NewTelemetry(reg, 50*vclock.Millisecond, 0)
	db, err := Open(tl, fs, o)
	if err != nil {
		t.Fatal(err)
	}

	val := make([]byte, 512)
	acked := map[string]bool{}
	var stalled int
	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("key%06d", i)
		err := db.Put(tl, []byte(k), val)
		switch {
		case err == nil:
			acked[k] = true
		case errors.Is(err, ErrWriteStalled):
			stalled++
		default:
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if stalled == 0 {
		t.Fatal("deadline never fired under saturation")
	}
	led := db.tel.Stalls
	if n := led.Count(obs.StallWriteStalled); int(n) != stalled {
		t.Fatalf("ledger write_stalled count %d != %d returned errors", n, stalled)
	}
	// The bounded wait is exactly the deadline, never more.
	if m := led.MaxNs(obs.StallWriteStalled); m > o.WriteStallDeadline {
		t.Fatalf("write_stalled max %v exceeds deadline %v", m, o.WriteStallDeadline)
	}
	if gs := db.GovernorStats(); int(gs.RejectedWrites) != stalled {
		t.Fatalf("governor rejected %d != %d errors", gs.RejectedWrites, stalled)
	}

	// Every acked write must read back — before and after reopen.
	check := func(db *DB, tl *vclock.Timeline, when string) {
		for k := range acked {
			if _, err := db.Get(tl, []byte(k)); err != nil {
				t.Fatalf("%s: acked key %q: %v", when, k, err)
			}
		}
	}
	check(db, tl, "live")
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	o.Metrics, o.Telemetry = nil, nil
	db2, err := Open(tl, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close(tl)
	check(db2, tl, "reopened")
}

// A zero deadline preserves block-until-room: the same saturating
// workload completes without a single ErrWriteStalled.
func TestZeroDeadlineBlocksForever(t *testing.T) {
	o := governedOpts(SyncNobLSM)
	o.WriteStallDeadline = 0
	o.Governor.BurstBytes = 4 << 10
	o.Governor.MinRateBytesPerSec = 1 << 20
	o.Governor.MaxRateBytesPerSec = 1 << 20
	db, tl := openGoverned(t, o)
	defer db.Close(tl)

	stalled, applied := hammer(t, db, tl, 3000)
	if stalled != 0 {
		t.Fatalf("zero deadline rejected %d writes", stalled)
	}
	if applied != 3000 {
		t.Fatalf("applied %d of 3000", applied)
	}
	if n := db.tel.Stalls.Count(obs.StallWriteStalled); n != 0 {
		t.Fatalf("write_stalled counted %d with zero deadline", n)
	}
}

// With the governor off (the default), behavior is stock: the
// sync-mode rotation cliff (memtable_full) fires, no admission causes
// appear, and the governor surfaces stay zero.
func TestGovernorOffIsStock(t *testing.T) {
	o := governedOpts(SyncNobLSM)
	o.GovernorEnabled = false
	o.WriteStallDeadline = vclock.Millisecond // ignored without governor
	db, tl := openGoverned(t, o)
	defer db.Close(tl)

	stalled, _ := hammer(t, db, tl, 6000)
	if stalled != 0 {
		t.Fatalf("ungoverned run rejected %d writes", stalled)
	}
	led := db.tel.Stalls
	if led.Count(obs.StallMemtableFull) == 0 {
		t.Fatal("stock rotation cliff never fired — pressure setup broken")
	}
	if n := led.Count(obs.StallAdmissionPacing) + led.Count(obs.StallWriteStalled); n != 0 {
		t.Fatalf("admission causes counted %d with governor off", n)
	}
	if gs := db.GovernorStats(); gs.PacedWrites != 0 || gs.RejectedWrites != 0 || gs.AdmittedBytes != 0 {
		t.Fatalf("governor stats nonzero when off: %+v", gs)
	}
}

// The doctor report gains an admission-governor section in both
// states.
func TestDoctorGovernorSection(t *testing.T) {
	db, tl := openGoverned(t, governedOpts(SyncNobLSM))
	doc, ok := db.Property("noblsm.doctor")
	if !ok {
		t.Fatal("no doctor property")
	}
	if want := "-- admission governor --"; !strings.Contains(doc, want) {
		t.Fatalf("doctor report missing %q", want)
	}
	if !strings.Contains(doc, "admitted rate") {
		t.Fatal("governor section missing rate line")
	}
	db.Close(tl)

	db2, _, tl2 := newDB(t, SyncAll)
	doc2, _ := db2.Property("noblsm.doctor")
	if !strings.Contains(doc2, "(admission governor off)") {
		t.Fatal("ungoverned doctor report missing off notice")
	}
	db2.Close(tl2)
}
