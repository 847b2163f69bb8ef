// Quickstart: open a NobLSM store on the simulated SSD + ext4 stack,
// write and read a few keys, scan a range, and show how few fsyncs the
// workload needed compared to what stock LevelDB would issue.
package main

import (
	"fmt"
	"log"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/harness"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

func main() {
	// Provision the stack: a PM883-like SSD, ext4 in ordered mode
	// (with the paper's check_commit/is_committed syscalls), and a
	// NobLSM-configured engine. Everything below runs in virtual
	// time: tl is this thread's clock.
	tl := vclock.NewTimeline(0)
	// One registry spans the stack: engine, filesystem and device
	// counters are read from it by name.
	reg := obs.NewRegistry()
	dev := ssd.NewObserved(ssd.PM883(), reg)
	opts := policy.MustOptions(policy.NobLSM, harness.ScaledOptions(50_000, 1024, harness.PaperTable64MB))
	// Match the journal commit cadence to the scaled run, as the
	// experiment harness does (a 5 s interval would span this whole
	// sub-second virtual workload).
	fsCfg := ext4.DefaultConfig()
	fsCfg.CommitInterval = opts.PollInterval
	fs := ext4.NewObserved(fsCfg, dev, reg, nil)
	opts.Metrics = reg
	db, err := engine.Open(tl, fs, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Basic operations.
	must(db.Put(tl, []byte("greeting"), []byte("hello, NobLSM")))
	must(db.Put(tl, []byte("paper"), []byte("DAC 2022")))
	must(db.Delete(tl, []byte("paper")))
	v, err := db.Get(tl, []byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greeting = %q\n", v)
	if _, err := db.Get(tl, []byte("paper")); err == engine.ErrNotFound {
		fmt.Println("paper was deleted")
	}

	// Write enough data to drive real minor and major compactions
	// (keys scattered multiplicatively so memtable ranges overlap).
	var buf []byte
	for i := int64(0); i < 50_000; i++ {
		k := i * 2654435761 % 50_000
		buf = dbbench.Value(buf, k, 0, 1024)
		must(db.Put(tl, dbbench.Key(k), buf))
	}

	// Range scan.
	it, err := db.NewIterator(tl)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for it.Seek([]byte("0000000000010000")); it.Valid() && n < 3; it.Next() {
		fmt.Printf("scan: %s = %.16q...\n", it.Key(), it.Value())
		n++
	}
	// Closing releases the iterator's read snapshot, so the tables it
	// pins can be reclaimed once compactions supersede them.
	must(it.Close())

	// The point of NobLSM: the fill above ran its major compactions
	// without a single fsync. Only minor compactions (memtable → L0)
	// synced, once each.
	c := reg.Counters()
	inv := db.Tracker().Inventory()
	fmt.Printf("\nvirtual time elapsed:  %v\n", tl.Now())
	fmt.Printf("minor compactions:     %d\n", c["engine.compactions.minor"])
	fmt.Printf("major compactions:     %d (+%d trivial moves)\n", c["engine.compactions.major"], c["engine.compactions.trivial_moves"])
	fmt.Printf("fsyncs issued:         %d (= minor compactions: one sync per KV pair, ever)\n", c["ext4.syncs"])
	fmt.Printf("async journal commits: %d\n", c["ext4.async_commits"])
	fmt.Printf("tracker:               %d deps pending, %d shadow tables retained\n", len(inv.Deps), len(inv.Protected))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
