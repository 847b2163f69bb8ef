package harness

import (
	"testing"

	"noblsm/internal/vfs"
)

// TestCrashExplorerExhaustive is the exhaustive crash sweep: a NobLSM
// fill recorded by CrashFS must yield hundreds of journal-commit
// boundaries, and recovery at EVERY one of them must lose no write
// acked before the durability horizon and reference no damaged table.
// The boundary count the workload is sized to produce is asserted too.
func TestCrashExplorerExhaustive(t *testing.T) {
	rep, err := ExploreCrashPoints(CrashExplorerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Boundaries < 500 {
		t.Fatalf("workload produced %d commit boundaries, want >= 500", rep.Boundaries)
	}
	if rep.Validated == 0 {
		t.Fatal("no crash point was validated")
	}
	if rep.GuaranteeChecks == 0 {
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
