// crashexplorer.go drives a NobLSM store over a CrashFS-instrumented
// ext4 stack and validates recovery at EVERY journal-commit boundary
// the run produced. Each boundary is exactly one state a power cut
// could leave behind under data=ordered semantics (see vfs.CrashFS),
// so iterating them replaces probabilistic crash testing with an
// exhaustive enumeration: at each point the durable image is
// materialized into a fresh filesystem, reopened through the ordinary
// engine.Open path, checked at the boundary horizon (contract.go),
// scrubbed, and backed up and restored.
package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// CrashExplorerReport summarizes one exhaustive sweep.
type CrashExplorerReport struct {
	// Boundaries is how many commit boundaries the workload produced.
	Boundaries int
	// Validated is how many distinct post-crash images were
	// materialized, reopened and checked.
	Validated int
	// Duplicates is how many boundaries shared a durable
	// image with an already-validated one (an fsync boundary right
	// after an async commit durably changes nothing, for example).
	Duplicates int
	// Kinds counts validated boundaries by commit kind.
	Kinds map[string]int
	// GuaranteeChecks counts the assertions made across all points:
	// keys acked before the horizon, batch groups, backup probes.
	GuaranteeChecks int64
}

// ExploreCrashPoints runs 40 000 puts over 3 000 keys (32-byte values:
// many ops per commit window, so nearly every boundary has unsynced
// state to lose), with the sibling batches interleaved, then sweeps the
// recorded boundaries. It returns an error at the first crash point
// that violates recovery's contract; logf receives progress lines.
func ExploreCrashPoints(logf func(format string, args ...any)) (*CrashExplorerReport, error) {
	const ops, valueSize = 40_000, 32
	base := ScaledOptions(ops, valueSize, PaperTable64MB)
	commit := base.PollInterval
	tl := vclock.NewTimeline(0)
	st, err := newStack(tl, policy.NobLSM, base, commit, obs.Sink{}, mountCrash, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("crash explorer: opening store: %w", err)
	}
	w := &workload{valueSize: valueSize, keyspace: 3_000, batches: true}
	if err := w.run(tl, st.DB, ops); err != nil {
		return nil, fmt.Errorf("crash explorer: %w", err)
	}
	if err := st.DB.Close(tl); err != nil {
		return nil, fmt.Errorf("crash explorer: closing store: %w", err)
	}

	points := st.crash.Points()
	rep := &CrashExplorerReport{Boundaries: len(points), Kinds: make(map[string]int)}
	logf("crash explorer: %d ops produced %d commit boundaries", ops, len(points))
	var distinct []vfs.CommitRecord
	seen := make(map[string]bool, len(points))
	for _, p := range points {
		if key := imageKey(p); !seen[key] {
			seen[key] = true
			distinct = append(distinct, p)
		}
	}
	rep.Duplicates = len(points) - len(distinct)

	// Every image reopens on a stack of its own and the model is only
	// read, so the images are validated on one goroutine per CPU; the
	// report (and the first failure, in boundary order) does not depend
	// on the interleaving.
	checks := make([]int64, len(distinct))
	errs := make([]error, len(distinct))
	var wg sync.WaitGroup
	cpus := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range distinct {
		wg.Add(1)
		cpus <- struct{}{}
		go func() {
			defer func() { <-cpus; wg.Done() }()
			checks[i], errs[i] = validateCrashPoint(w, st.crash, p, base, commit)
		}()
	}
	wg.Wait()
	for i, p := range distinct {
		if errs[i] != nil {
			return nil, fmt.Errorf("crash explorer: boundary seq=%d kind=%s at=%v: %w", p.Seq, p.Kind, p.At, errs[i])
		}
		rep.Validated++
		rep.Kinds[p.Kind]++
		rep.GuaranteeChecks += checks[i]
	}
	logf("crash explorer: %d validated (%d duplicate images), %d guarantee checks, kinds=%v",
		rep.Validated, rep.Duplicates, rep.GuaranteeChecks, rep.Kinds)
	return rep, nil
}

// imageKey fingerprints a boundary's durable image. Appends are
// immutable history — a given (ino, size) prefix always has the same
// bytes within one run — so the name/ino/size triple identifies the
// image without hashing content.
func imageKey(p vfs.CommitRecord) string {
	var b strings.Builder
	for _, f := range p.Files {
		fmt.Fprintf(&b, "%s\x00%d\x00%d\x00", f.Name, f.Ino, f.Size)
	}
	return b.String()
}

// validateCrashPoint reopens one boundary's image on a fresh stack, its
// timeline resuming at the crash instant so poll cadences stay
// meaningful, and checks it at the boundary horizon. A full scrub must
// then find nothing to heal — the recovered version references no torn
// or corrupt table — and a backup of the recovered store must
// restore to exactly what the check read. Returns the number of
// guarantees checked.
func validateCrashPoint(w *workload, crash *vfs.CrashFS, p vfs.CommitRecord, base engine.Options, commit vclock.Duration) (int64, error) {
	img, err := crash.Materialize(p)
	if err != nil {
		return 0, err
	}
	tl := vclock.NewTimeline(p.At)
	st, err := newStack(tl, policy.NobLSM, base, commit, obs.Sink{}, mountPlain, 0, img)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer st.DB.Close(tl)
	image, checks, err := w.check(tl, st.DB, horizon(p.At, commit), nil)
	if err != nil {
		return 0, err
	}
	healed, err := st.DB.ScrubTables(tl)
	if err != nil {
		return 0, fmt.Errorf("scrub: %w", err)
	}
	if healed != 0 {
		return 0, fmt.Errorf("scrub healed %d tables: recovered version referenced damaged files", healed)
	}
	if err := probeBackup(tl, st, image); err != nil {
		return 0, fmt.Errorf("backup probe: %w", err)
	}
	return checks + 1, nil
}
