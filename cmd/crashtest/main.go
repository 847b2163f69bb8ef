// Command crashtest reproduces the paper's consistency test (Section
// 5.2): it emulates `halt -f -p -n` — a sudden power cut without
// flushing dirty blocks — in the middle of a fillrandom run, reopens
// the store, and verifies the paper's claim: KV pairs stored in
// SSTables are intact, while some records in the (unsynced) logs are
// broken — no write acked more than three journal-commit intervals
// before the cut is lost or stale. The test repeats three times per
// system, as in the paper.
//
// Usage:
//
//	crashtest                     # LevelDB and NobLSM, 3 trials each
//	crashtest -variant Volatile   # no syncs at all: fails, naming a lost write
package main

import (
	"flag"
	"fmt"
	"os"

	"noblsm/internal/harness"
	"noblsm/internal/policy"
)

var (
	variantFlag = flag.String("variant", "", "test a single variant (default: LevelDB and NobLSM)")
	ops         = flag.Int64("ops", 50_000, "fill size (paper: 10M)")
	trials      = flag.Int("trials", 3, "power-cut repetitions (paper: 3)")
	seed        = flag.Int64("seed", 42, "workload seed")
)

func main() {
	flag.Parse()
	if *ops < 1 || *trials < 1 {
		fmt.Fprintln(os.Stderr, "-ops and -trials must be positive")
		os.Exit(2)
	}
	variants := []policy.Variant{policy.LevelDB, policy.NobLSM}
	if *variantFlag != "" {
		variants = []policy.Variant{policy.Variant(*variantFlag)}
	}
	fmt.Println("\nConsistency test: sudden power-off during fillrandom (halt -f -p -n)")
	failed := false
	for _, v := range variants {
		for trial := 0; trial < *trials; trial++ {
			cut := *ops * int64(trial+2) / int64(*trials+2)
			res, err := harness.RunConsistencyTest(v, *ops, 1024, cut, *seed+int64(trial))
			if err != nil {
				fmt.Printf("%-10s trial %d: FAILED: %v\n", v, trial+1, err)
				failed = true
				continue
			}
			fmt.Printf("%-10s trial %d: cut@%-7d survived=%-7d lost(log tail)=%-5d brokenLogRecords=%-3d OK: SSTables intact\n",
				v, trial+1, cut, res.KeysSurvived, res.KeysLost, res.WALRecordsDropped)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("\nAll trials: KV pairs stored in SSTables are intact; only unsynced")
	fmt.Println("log-tail records may be lost — the same consistency as conventional")
	fmt.Println("LSM-trees (paper Section 5.2).")
}
