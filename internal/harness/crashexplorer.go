// crashexplorer.go drives a NobLSM store over a CrashFS-instrumented
// ext4 stack and validates recovery at EVERY journal-commit boundary
// the run produced. Each boundary is exactly one state a power cut
// could leave behind under data=ordered semantics (see vfs.CrashFS),
// so iterating them replaces probabilistic crash testing with an
// exhaustive enumeration: at each point the durable image is
// materialized into a fresh filesystem, reopened through the ordinary
// engine.Open path, and checked for the two invariants the paper's
// design promises — no acked write older than the durability horizon
// is lost, and every surviving table passes a full integrity scrub.
package harness

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// CrashExplorerConfig sizes the workload and bounds the sweep.
type CrashExplorerConfig struct {
	// Ops is the number of acked puts to drive (default 40 000).
	Ops int64
	// ValueSize is the value payload per put (default 32 bytes —
	// small values maximize the number of ops per commit window, so
	// nearly every boundary has fresh unsynced state to lose).
	ValueSize int
	// Keyspace is the number of distinct keys; ops cycle through it,
	// so most keys are overwritten many times and staleness after
	// recovery is detectable (default 3 000).
	Keyspace int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

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
	// GuaranteeChecks counts individual key-must-survive assertions
	// made across all points (the "acked before the horizon" checks).
	GuaranteeChecks int64
}

// The explorer's atomic-batch probe: a few sibling-key groups written
// only through multi-key Batches, so every crash image can assert the
// batch boundary survived whole.
const (
	crashBatchGroups   = 8
	crashBatchSiblings = 4
)

func crashBatchKey(group int64, sibling int) string {
	return fmt.Sprintf("bat-%03d-k%d", group, sibling)
}

// ackedWrite is one completed put: the global op index doubles as the
// key's round number, and at is the virtual instant the put returned.
type ackedWrite struct {
	op int64
	at vclock.Time
}

// crashValue renders the self-describing value for op i on key k,
// padded to size: "key-00123#000042xxxx…". Recovery validation parses
// it back and rejects any value the workload never acked.
func crashValue(k string, i int64, size int) []byte {
	v := fmt.Sprintf("%s#%06d", k, i)
	if len(v) < size {
		v += strings.Repeat("x", size-len(v))
	}
	return []byte(v)
}

// parseCrashValue recovers the op index from a value read back for
// key k, reporting ok=false on any byte the workload cannot have
// written for that key.
func parseCrashValue(k string, v []byte, size int) (int64, bool) {
	want := crashValue(k, 0, size)
	if len(v) != len(want) {
		return 0, false
	}
	prefix := len(k) + 1 // "key…#"
	if string(v[:prefix]) != k+"#" {
		return 0, false
	}
	var op int64
	for _, c := range v[prefix : prefix+6] {
		if c < '0' || c > '9' {
			return 0, false
		}
		op = op*10 + int64(c-'0')
	}
	for _, c := range v[prefix+6:] {
		if c != 'x' {
			return 0, false
		}
	}
	return op, true
}

// ExploreCrashPoints runs the workload, then sweeps the recorded
// boundaries. It returns a non-nil error the moment any crash point
// violates recovery's contract; the report describes a completed
// sweep.
func ExploreCrashPoints(cfg CrashExplorerConfig) (*CrashExplorerReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 40_000
	}
	if cfg.Ops > 999_999 {
		return nil, fmt.Errorf("harness: crash explorer op index encodes in 6 digits; %d ops exceed it", cfg.Ops)
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 32
	}
	if cfg.Keyspace <= 0 {
		cfg.Keyspace = 3_000
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The stack mirrors NewStore's NobLSM configuration, with the
	// CrashFS recorder spliced between the engine and ext4. The
	// commit interval follows the scaled poll interval exactly as the
	// figure harnesses configure it.
	base := ScaledOptions(cfg.Ops, cfg.ValueSize, PaperTable64MB)
	opts, err := policy.Options(policy.NobLSM, base)
	if err != nil {
		return nil, err
	}
	fsCfg := ext4.DefaultConfig()
	fsCfg.CommitInterval = base.PollInterval
	inner := ext4.New(fsCfg, ssd.New(ScaledDevice(base)))
	mount, crash := vfs.NewCrashFS(inner)
	tl := vclock.NewTimeline(0)
	db, err := engine.Open(tl, mount, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: opening explorer store: %w", err)
	}

	writes := make(map[string][]ackedWrite, cfg.Keyspace)
	for i := int64(0); i < cfg.Ops; i++ {
		k := fmt.Sprintf("key-%05d", i%int64(cfg.Keyspace))
		if err := db.Put(tl, []byte(k), crashValue(k, i, cfg.ValueSize)); err != nil {
			return nil, fmt.Errorf("harness: explorer put %d: %w", i, err)
		}
		// The ack instant is when Put returned on the client
		// timeline: everything at least one horizon older than a
		// boundary must survive a crash at that boundary.
		writes[k] = append(writes[k], ackedWrite{op: i, at: tl.Now()})
		// Interleave multi-key atomic batches: a group's siblings are
		// always written together with one round tag, so any recovered
		// image must show each group all-missing or all at one round —
		// the torn-batch probe validateCrashPoint runs via MultiGet.
		if i%16 == 15 {
			g := (i / 16) % crashBatchGroups
			var b engine.Batch
			for s := 0; s < crashBatchSiblings; s++ {
				k := crashBatchKey(g, s)
				b.Put([]byte(k), crashValue(k, i, cfg.ValueSize))
			}
			if err := db.Write(tl, &b); err != nil {
				return nil, fmt.Errorf("harness: explorer batch %d: %w", i, err)
			}
			for s := 0; s < crashBatchSiblings; s++ {
				k := crashBatchKey(g, s)
				writes[k] = append(writes[k], ackedWrite{op: i, at: tl.Now()})
			}
		}
	}
	if err := db.Close(tl); err != nil {
		return nil, fmt.Errorf("harness: closing explorer store: %w", err)
	}

	points := crash.Points()
	rep := &CrashExplorerReport{Boundaries: len(points), Kinds: make(map[string]int)}
	logf("crash explorer: %d ops produced %d commit boundaries", cfg.Ops, len(points))

	// The durability horizon: an acked write becomes crash-proof at
	// most one flusher ageing (≤ CommitInterval when unset) plus one
	// commit cadence after its ack, with one extra interval of slack
	// for boundary alignment. Anything acked earlier than that before
	// a boundary MUST be in the boundary's durable image.
	guard := vclock.Duration(3 * int64(fsCfg.CommitInterval))

	seen := make(map[string]bool, len(points))
	for _, p := range points {
		key := imageKey(p)
		if seen[key] {
			rep.Duplicates++
			continue
		}
		seen[key] = true
		checks, err := validateCrashPoint(crash, p, base, fsCfg, opts, writes, guard, cfg.ValueSize)
		if err != nil {
			return nil, fmt.Errorf("crash point seq=%d kind=%s at=%v: %w", p.Seq, p.Kind, p.At, err)
		}
		rep.Validated++
		rep.Kinds[p.Kind]++
		rep.GuaranteeChecks += checks
		if rep.Validated%100 == 0 {
			logf("crash explorer: %d/%d points validated", rep.Validated, len(points))
		}
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

// validateCrashPoint materializes one boundary into a fresh
// filesystem, reopens it through engine.Open, and asserts the
// recovery contract: every recovered value is a value the workload
// acked for that key, every key acked at least one horizon before the
// boundary survives at no older a round, and a full scrub finds every
// surviving table intact. Returns the number of key-survival checks.
func validateCrashPoint(crash *vfs.CrashFS, p vfs.CommitRecord, base engine.Options,
	fsCfg ext4.Config, opts engine.Options, writes map[string][]ackedWrite,
	guard vclock.Duration, valueSize int) (int64, error) {

	img, err := crash.Materialize(p)
	if err != nil {
		return 0, err
	}
	// The post-crash mount: the image's files are laid down and force-
	// committed so they are plain durable contents — the simulated
	// machine rebooted; only the engine's recovery is under test. The
	// timeline resumes at the crash instant so poll cadences stay
	// meaningful.
	tl := vclock.NewTimeline(p.At)
	fs := ext4.New(fsCfg, ssd.New(ScaledDevice(base)))
	names := make([]string, 0, len(img))
	for name := range img {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := fs.WriteFile(tl, name, img[name]); err != nil {
			return 0, fmt.Errorf("materializing %q: %w", name, err)
		}
	}
	fs.ForceCommit(tl)

	db, err := engine.Open(tl, fs, opts)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer db.Close(tl)

	// One full scan: every surviving value must be self-consistent —
	// a value this workload acked for this exact key. The raw image is
	// kept for the checkpoint probe's byte-equivalence check.
	recovered := make(map[string]int64)
	raw := make(map[string]string)
	it, err := db.NewIterator(tl)
	if err != nil {
		return 0, err
	}
	for it.First(); it.Valid(); it.Next() {
		k := string(it.Key())
		op, ok := parseCrashValue(k, it.Value(), valueSize)
		if !ok {
			it.Close()
			return 0, fmt.Errorf("key %q recovered value %q the workload never wrote", k, it.Value())
		}
		if len(writes[k]) == 0 {
			it.Close()
			return 0, fmt.Errorf("recovered key %q was never written", k)
		}
		recovered[k] = op
		raw[k] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		it.Close()
		return 0, fmt.Errorf("scan: %w", err)
	}
	it.Close()

	// Zero acked-write loss behind the horizon: for each key, the
	// newest write acked at least `guard` before this boundary must
	// read back — possibly superseded by a newer acked round, never
	// by an older one, never missing.
	horizon := p.At.Add(-guard)
	var checks int64
	for k, ws := range writes {
		g := sort.Search(len(ws), func(i int) bool { return ws[i].at > horizon })
		if g == 0 {
			continue // nothing old enough to be guaranteed yet
		}
		guaranteed := ws[g-1]
		checks++
		got, ok := recovered[k]
		if !ok {
			return 0, fmt.Errorf("acked write lost: key %q op %d acked at %v (horizon %v) missing after recovery",
				k, guaranteed.op, guaranteed.at, horizon)
		}
		if got < guaranteed.op {
			return 0, fmt.Errorf("stale recovery: key %q came back at op %d but op %d was acked at %v (horizon %v)",
				k, got, guaranteed.op, guaranteed.at, horizon)
		}
	}

	// No torn batch boundaries: each probe group's siblings were only
	// ever written atomically with one shared round, so a MultiGet
	// over the group — the batch read path, one consistent view — must
	// come back all-missing or all at the same round. A mixed result
	// means recovery (or MultiGet's read-point clamp) split a batch.
	for g := int64(0); g < crashBatchGroups; g++ {
		group := make([][]byte, crashBatchSiblings)
		for s := range group {
			group[s] = []byte(crashBatchKey(g, s))
		}
		vals, errs := db.MultiGet(tl, group)
		round, present := int64(-1), 0
		for s := range group {
			if errs[s] != nil {
				if errors.Is(errs[s], engine.ErrNotFound) {
					continue
				}
				return 0, fmt.Errorf("batch group %d: MultiGet: %w", g, errs[s])
			}
			op, ok := parseCrashValue(string(group[s]), vals[s], valueSize)
			if !ok {
				return 0, fmt.Errorf("batch group %d key %q recovered value %q the workload never wrote",
					g, group[s], vals[s])
			}
			if present == 0 {
				round = op
			} else if op != round {
				return 0, fmt.Errorf("torn batch: group %d recovered rounds %d and %d", g, round, op)
			}
			present++
		}
		if present != 0 && present != crashBatchSiblings {
			return 0, fmt.Errorf("torn batch: group %d recovered %d/%d siblings", g, present, crashBatchSiblings)
		}
		checks++
	}

	// Invariant-clean recovery: a full scrub of every live table must
	// find nothing to heal — the durable image contains no table the
	// recovered version references that is torn or corrupt.
	healed, err := db.ScrubTables(tl)
	if err != nil {
		return 0, fmt.Errorf("scrub: %w", err)
	}
	if healed != 0 {
		return 0, fmt.Errorf("scrub healed %d tables: recovered version referenced damaged files", healed)
	}

	// Checkpoint probe: at this exact crash boundary, a zero-copy
	// checkpoint of the recovered store must restore byte-equivalently
	// through the repair path. Any divergence here means a backup can
	// silently lose a crash survivor.
	if err := probeCheckpoint(tl, fs, opts, db, raw); err != nil {
		return 0, fmt.Errorf("checkpoint probe: %w", err)
	}
	checks++
	return checks, nil
}

// probeCheckpoint checkpoints the (quiescent) recovered store, restores
// the checkpoint beside it and asserts the restored copy is
// byte-equivalent to the store itself.
func probeCheckpoint(tl *vclock.Timeline, fs *ext4.FS, opts engine.Options, db *engine.DB, want map[string]string) error {
	info, err := db.Checkpoint(tl, "probe-ckpt")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	rep, err := engine.RestoreBackup(tl, fs, "probe-ckpt", "probe-rst", opts)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if len(rep.Quarantined) > 0 {
		return fmt.Errorf("restore quarantined %d tables", len(rep.Quarantined))
	}
	rdb, err := engine.Open(tl, vfs.NewPrefix(fs, "probe-rst"), opts)
	if err != nil {
		return fmt.Errorf("opening restored checkpoint: %w", err)
	}
	cmpErr := compareContents(tl, rdb, want, "restored checkpoint")
	if err := rdb.Close(tl); cmpErr == nil && err != nil {
		cmpErr = fmt.Errorf("closing restored checkpoint: %w", err)
	}
	if cmpErr != nil {
		return cmpErr
	}
	if err := db.ReleaseCheckpoint(tl, info.ID); err != nil {
		return fmt.Errorf("releasing checkpoint: %w", err)
	}
	return nil
}

// compareContents asserts a store's full scan equals want exactly.
func compareContents(tl *vclock.Timeline, db *engine.DB, want map[string]string, label string) error {
	it, err := db.NewIterator(tl)
	if err != nil {
		return err
	}
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		k := string(it.Key())
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("%s: extra key %q", label, k)
		}
		if w != string(it.Value()) {
			return fmt.Errorf("%s: key %q diverged", label, k)
		}
		n++
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("%s: scan: %w", label, err)
	}
	if n != len(want) {
		return fmt.Errorf("%s: %d keys, want %d", label, n, len(want))
	}
	return nil
}
