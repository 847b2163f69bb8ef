package harness

import (
	"fmt"
	"sync"
	"testing"
)

// TestBackupScheduleSweep drives the backup fault sweep over 60 seeded
// schedules (12 under -short) and asserts the invariants per schedule —
// zero acked-write loss on the primary, and a last incremental backup
// that restores through the repair path to exactly the primary's
// contents — plus, suite-wide, that the fault plane actually fired on
// the export and that at least one backup had to retry through a
// transient fault.
func TestBackupScheduleSweep(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 12
	}
	var mu sync.Mutex
	var injected int64
	var retries, backups int
	t.Run("schedules", func(t *testing.T) {
		for seed := int64(1); seed <= n; seed++ {
			s := NewBackupSchedule(seed)
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				rep, err := s.Run()
				if err != nil {
					t.Fatalf("invariant violation: %v\n%s", err, rep)
				}
				if rep.Backups < 2 {
					t.Fatalf("fewer than 2 backups landed: %s", rep)
				}
				mu.Lock()
				injected += rep.Injected
				retries += rep.BackupTrys
				backups += rep.Backups
				mu.Unlock()
			})
		}
	})
	t.Logf("schedules=%d injected=%d retries=%d backups=%d", n, injected, retries, backups)
	if injected == 0 {
		t.Fatal("the fault plane never fired across the whole suite")
	}
	if retries == 0 {
		t.Fatal("no backup ever retried through a transient fault")
	}
}
