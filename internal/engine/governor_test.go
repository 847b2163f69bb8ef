package engine

import (
	"fmt"
	"strings"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/governor"
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
// L0 triggers lowered, so a modest overwrite run builds real flush/L0
// debt against the bucket.
func governedOpts(mode SyncMode) Options {
	o := smallOpts(mode)
	o.GovernorEnabled = true
	o.L0SlowdownTrigger = 4
	o.L0StopTrigger = 8
	o.Picker.L0CompactionTrigger = 2
	return o
}

// governedFloor is the rate floor the governed tests pin: the 64 KiB/s
// Derive gives a 32 KiB memtable leaves this store's worst stall at
// 2 ms, above a quarter of the ungoverned 6.2 ms cliff.
func governedFloor(cfg *governor.Config) { cfg.MinRateBytesPerSec = 256 << 10 }

// openGoverned opens o on pressureDevice. When o enables the governor,
// the one Open built is replaced, before any write, by one of the same
// derived geometry with pin applied.
func openGoverned(t *testing.T, o Options, pin func(*governor.Config)) (*DB, *vclock.Timeline) {
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
	if db.governor != nil {
		cfg := governor.Derive(db.opts.Picker.L0CompactionTrigger, db.opts.L0StopTrigger, db.opts.WriteBufferSize)
		pin(&cfg)
		db.mu.Lock()
		db.governor = governor.New(db.reg, func() int64 { return db.m.bytesWritten.Value() }, cfg)
		db.updateGovernorDebt()
		db.mu.Unlock()
	}
	return db, tl
}

// hammerKeys is how many distinct keys hammer overwrites in turn.
const hammerKeys = 2000

// hammer overwrites hammerKeys keys in turn, n Puts in all; every Put
// must succeed.
func hammer(t *testing.T, db *DB, tl *vclock.Timeline, n int) {
	t.Helper()
	val := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := db.Put(tl, hammerKey(i%hammerKeys), val); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

func hammerKey(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

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
	bdb, btl := openGoverned(t, base, nil)
	hammer(t, bdb, btl, 6000)
	baseWorst := worstStall(bdb.stalls)
	bdb.Close(btl)
	if baseWorst == 0 {
		t.Fatal("ungoverned baseline never stalled — pressure setup broken")
	}

	db, tl := openGoverned(t, governedOpts(SyncNobLSM), governedFloor)
	defer db.Close(tl)
	hammer(t, db, tl, 6000)

	led := db.stalls
	if n := led.Count(obs.StallAdmissionPacing); n == 0 {
		t.Fatal("no admission_pacing stalls under sustained overwrite")
	}
	if n := led.Count(obs.StallL0Slowdown); n != 0 {
		t.Fatalf("governed run still hit the slowdown cliff %d times", n)
	}
	if paced, admitted := counter(t, db, "engine.governor.paced_writes"), counter(t, db, "engine.governor.admitted_bytes"); paced == 0 || admitted == 0 {
		t.Fatalf("governor idle: %d paced writes, %d bytes admitted", paced, admitted)
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

// A saturated governor paces but never fails a write: with a tiny
// bucket and the admitted rate pinned at 1 MiB/s every Put succeeds,
// and every acked key reads back live and after reopen.
func TestGovernorSaturatedKeepsAckedWrites(t *testing.T) {
	o := governedOpts(SyncNobLSM)
	db, tl := openGoverned(t, o, func(cfg *governor.Config) {
		cfg.BurstBytes = 4 << 10
		cfg.MinRateBytesPerSec = 1 << 20
		cfg.MaxRateBytesPerSec = 1 << 20
	})
	hammer(t, db, tl, 6000)
	if counter(t, db, "engine.governor.paced_writes") == 0 {
		t.Fatal("governor never paced under saturation")
	}

	check := func(db *DB, tl *vclock.Timeline, when string) {
		for i := 0; i < hammerKeys; i++ {
			if _, err := db.Get(tl, hammerKey(i)); err != nil {
				t.Fatalf("%s: acked key %q: %v", when, hammerKey(i), err)
			}
		}
	}
	check(db, tl, "live")
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	o.Metrics, o.Telemetry = nil, nil
	db2, err := Open(tl, db.fs, o)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close(tl)
	check(db2, tl, "reopened")
}

// With the governor off (the default), behavior is stock: the
// sync-mode rotation cliff (memtable_full) fires, no admission causes
// appear, and the governor surfaces stay zero.
func TestGovernorOffIsStock(t *testing.T) {
	o := governedOpts(SyncNobLSM)
	o.GovernorEnabled = false
	db, tl := openGoverned(t, o, nil)
	defer db.Close(tl)

	hammer(t, db, tl, 6000)
	led := db.stalls
	if led.Count(obs.StallMemtableFull) == 0 {
		t.Fatal("stock rotation cliff never fired — pressure setup broken")
	}
	if n := led.Count(obs.StallAdmissionPacing); n != 0 {
		t.Fatalf("admission causes counted %d with governor off", n)
	}
	if _, ok := db.Registry().Counters()["engine.governor.paced_writes"]; ok {
		t.Fatal("governor registered its counters while off")
	}
}

// The doctor report gains an admission-governor section in both
// states.
func TestDoctorGovernorSection(t *testing.T) {
	db, tl := openGoverned(t, governedOpts(SyncNobLSM), governedFloor)
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
