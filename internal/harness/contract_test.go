package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noblsm/internal/policy"
	"noblsm/internal/vfs"
)

// replay names the `go test -run` pattern that replays the running
// (sub)test: every configuration here is deterministic for its seed.
func replay(t *testing.T) string {
	return fmt.Sprintf("replay: go test ./internal/harness -run '^%s$'", t.Name())
}

// TestCrashPointSweep is the failure-injection property test behind
// the paper's Section 4.4 argument: for every crash-consistent variant
// and for many randomized power-cut points (including points chosen to
// land inside NobLSM's dependency window and across journal-commit
// boundaries), the store reopens and keeps the contract at the cut's
// horizon — every value one the model acked for its key, every key
// acked more than three journal-commit intervals before the cut
// present at no older a round, a clean scan — and so does a second
// crash right after recovery (crash during recovery-repair work).
func TestCrashPointSweep(t *testing.T) {
	const ops = 4000
	rnd := rand.New(rand.NewSource(2022))
	for _, v := range []policy.Variant{policy.LevelDB, policy.NobLSM, policy.BoLT} {
		for trial := 0; trial < 8; trial++ {
			cut := int64(rnd.Intn(ops-100) + 50)
			t.Run(fmt.Sprintf("%s/cut=%d", v, cut), func(t *testing.T) {
				seed := rnd.Int63() // drawn before the subtests run in parallel
				t.Parallel()
				if _, err := crashCut(v, ops, 256, cut, seed, 0); err != nil {
					t.Fatalf("%v\n%s", err, replay(t))
				}
			})
		}
	}
}

// TestCrashDuringDependencyResolution crashes exactly when NobLSM's
// tracker has unresolved dependencies and after enough virtual time
// that some commits have landed — the trickiest window: part of the
// successor set durable, part not.
func TestCrashDuringDependencyResolution(t *testing.T) {
	const ops = 6000
	// Nudge virtual time so a commit boundary falls inside the
	// dependency window, then cut.
	lag := ScaledOptions(ops, 256, PaperTable64MB).PollInterval / 3
	for trial := 0; trial < 5; trial++ {
		if _, err := crashCut(policy.NobLSM, ops, 256, int64(2000+800*trial), int64(trial), lag); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, replay(t))
		}
	}
}

// TestCrashExplorerExhaustive is the exhaustive crash sweep: a NobLSM
// fill recorded by CrashFS must yield hundreds of journal-commit
// boundaries, and recovery at EVERY one of them must lose no write
// acked before the durability horizon and reference no damaged table.
// The boundary count the workload is sized to produce is asserted too.
func TestCrashExplorerExhaustive(t *testing.T) {
	rep, err := ExploreCrashPoints(t.Logf)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay(t))
	}
	if rep.Boundaries < 500 {
		t.Fatalf("workload produced %d commit boundaries, want >= 500", rep.Boundaries)
	}
	if rep.GuaranteeChecks == 0 { // also: no crash point was validated
		t.Fatal("no key-survival guarantee was ever exercised: horizon never engaged")
	}
	// Both boundary families must be swept: periodic async commits
	// (where NobLSM's unsynced compaction outputs become durable) and
	// fsync fast commits (minor-compaction L0 syncs).
	for _, kind := range []string{vfs.CommitAsync, vfs.CommitFsync} {
		if rep.Kinds[kind] == 0 {
			t.Fatalf("no %q boundary validated: kinds=%v", kind, rep.Kinds)
		}
	}
}

// sweepSeeds runs run for seeds 1..n (n/5 under -short) as parallel
// subtests schedules/seed=N, tallying each report under one lock, and
// returns the number of seeds run.
func sweepSeeds[R fmt.Stringer](t *testing.T, n int64, run func(seed int64) (R, error), tally func(R)) int64 {
	if testing.Short() {
		n /= 5
	}
	var mu sync.Mutex
	t.Run("schedules", func(t *testing.T) {
		for seed := int64(1); seed <= n; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				rep, err := run(seed)
				if err != nil {
					t.Fatalf("invariant violation: %v\n%s\n%s", err, rep, replay(t))
				}
				mu.Lock()
				tally(rep)
				mu.Unlock()
			})
		}
	})
	return n
}

// TestFaultScheduleExplorer drives the randomized fault-schedule
// explorer over 200 seeded schedules and asserts the robustness
// invariants per schedule — zero acked-write loss, full read
// availability, clean end-to-end scans — plus, suite-wide, that the
// fault plane actually fired and that at least one schedule
// demonstrably exercised predecessor repair (a corrupt successor
// healed from its retained shadow predecessors and quarantined).
func TestFaultScheduleExplorer(t *testing.T) {
	var injected, healed, quarantined, corruptTargets int64
	n := sweepSeeds(t, 200, func(seed int64) (FaultReport, error) { return NewFaultSchedule(seed).Run() },
		func(rep FaultReport) {
			injected += rep.Injected
			healed += rep.Healed
			quarantined += rep.Quarantined
			if rep.CorruptedAt != 0 {
				corruptTargets++
			}
		})
	t.Logf("schedules=%d injected=%d corrupt-targets=%d healed=%d quarantined=%d",
		n, injected, corruptTargets, healed, quarantined)
	if injected == 0 {
		t.Fatal("the fault plane never fired across the whole suite")
	}
	if corruptTargets == 0 {
		t.Fatal("no schedule found a healable successor to corrupt")
	}
	if healed < 1 || quarantined < 1 {
		t.Fatalf("predecessor repair never exercised: healed=%d quarantined=%d", healed, quarantined)
	}
}

// TestBackupScheduleSweep drives the backup fault sweep over 60 seeded
// schedules and asserts the invariants per schedule — zero acked-write
// loss on the primary, every phase's backup landed, and a last
// incremental backup that restores through the repair path to exactly
// the primary's contents — plus, suite-wide, that the fault plane
// actually fired on the export and that at least one backup had to
// retry through a transient fault.
func TestBackupScheduleSweep(t *testing.T) {
	var injected int64
	var retries, backups int
	n := sweepSeeds(t, 60, func(seed int64) (BackupReport, error) { return NewBackupSchedule(seed).Run() },
		func(rep BackupReport) {
			injected += rep.Injected
			retries += rep.BackupTrys
			backups += rep.Backups
		})
	t.Logf("schedules=%d injected=%d retries=%d backups=%d", n, injected, retries, backups)
	if injected == 0 {
		t.Fatal("the fault plane never fired across the whole suite")
	}
	if retries == 0 {
		t.Fatal("no backup ever retried through a transient fault")
	}
}
