package engine

// Self-healing reads from retained predecessor SSTables.
//
// NobLSM retains a compaction's input tables (predecessors) on disk as
// shadow backups until every output's (successor's) inode has
// journal-committed — the paper's crash-recoverability argument
// (Section 4.3). This file turns that passive retention into active
// repair: when a read or compaction hits sstable.ErrCorrupt on a
// successor whose dependency is still unresolved, the predecessors
// provably hold every byte of its data, so the engine
//
//  1. atomically claims the dependency from the tracker (CancelFor —
//     fails if the tracker already resolved it and reclaimed the
//     predecessors);
//  2. applies a version edit deleting the whole successor set and
//     re-adding the predecessors at their original levels;
//  3. quarantines the corrupt successor under a ".corrupt" suffix
//     (outside ParseFileName's namespace, so disposal ignores it) and lets
//     the healthy siblings age out as ordinary obsolete tables;
//  4. re-serves the read from the shadow predecessors and re-triggers
//     the compaction.
//
// Rolling predecessors back into the version is sound because the
// successor set replaced exactly their key range at exactly their
// levels: recency within a level is decided by sequence numbers, so
// versions the merge had legitimately dropped reappear strictly below
// their supersessors. The rollback is refused if any successor has
// since moved or been compacted away, or if a later compaction slid a
// new table into the predecessors' key range — then the shadow copies
// no longer represent that region and the corruption is surfaced
// instead of healed.

import (
	"errors"
	"sort"

	"noblsm/internal/obs"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// repairFile is one table of a repair plan with the level it occupied
// when the plan was recorded.
type repairFile struct {
	meta  *version.FileMeta
	level int
}

// repairPlan records a compaction's predecessor/successor sets with
// their levels so a corrupt successor can be rolled back while the
// tracker still retains the predecessors. It is registered with the
// compaction's dependency (installCompaction) and lives exactly as
// long: a resolved or cancelled dependency takes its plan with it.
type repairPlan struct {
	preds []repairFile
	succs []repairFile
}

// newRepairPlan is the rollback plan of a compaction about to be
// registered with the tracker.
func newRepairPlan(c *version.Compaction, outputs []*outputFile) *repairPlan {
	plan := &repairPlan{}
	for _, fm := range c.Inputs[0] {
		plan.preds = append(plan.preds, repairFile{meta: fm, level: c.Level})
	}
	for _, fm := range c.Inputs[1] {
		plan.preds = append(plan.preds, repairFile{meta: fm, level: c.Level + 1})
	}
	for _, of := range outputs {
		plan.succs = append(plan.succs, repairFile{meta: of.meta, level: of.level})
	}
	return plan
}

// repairPlanFor returns the plan of the unresolved dependency that
// produced successor num, or nil.
func (db *DB) repairPlanFor(num uint64) *repairPlan {
	if db.tracker == nil {
		return nil
	}
	plan, _ := db.tracker.DepFor(num)
	rp, _ := plan.(*repairPlan)
	return rp
}

// fileAtLevel reports whether the version holds table num at level.
func fileAtLevel(v *version.Version, level int, num uint64) bool {
	for _, f := range v.Files[level] {
		if f.Number == num {
			return true
		}
	}
	return false
}

// planApplicableLocked reports whether plan could be applied to the
// current version — every successor still live at its recorded level,
// and no foreign table inside any predecessor's range. Pure check, no
// state change. Caller holds db.mu.
func (db *DB) planApplicableLocked(plan *repairPlan) bool {
	// Every successor must still be live at its recorded level: a
	// successor that was compacted away (or trivially moved) means the
	// region has evolved past the shadow copies.
	succSet := make(map[uint64]bool, len(plan.succs))
	for _, s := range plan.succs {
		if !fileAtLevel(db.current, s.level, s.meta.Number) {
			return false
		}
		succSet[s.meta.Number] = true
	}
	// Re-adding a predecessor must not overlap any table other than
	// the successors being deleted (sorted levels stay disjoint). A
	// later compaction can have slid a new table into a gap between
	// the predecessors' range and the narrower successors' range.
	for _, p := range plan.preds {
		if p.level == 0 {
			continue // L0 files may overlap freely
		}
		for _, f := range db.current.Overlapping(p.level, p.meta.SmallestUser(), p.meta.LargestUser()) {
			if !succSet[f.Number] {
				return false
			}
		}
	}
	return true
}

// HealableSuccessors lists the live tables that could, right now, be
// rolled back onto retained shadow predecessors if found corrupt —
// introspection for the fault-schedule explorer and tests.
func (db *DB) HealableSuccessors() []uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tracker == nil {
		return nil
	}
	var out []uint64
	for _, d := range db.tracker.Inventory().Deps {
		if plan, ok := d.Plan.(*repairPlan); ok && db.planApplicableLocked(plan) {
			out = append(out, d.Succs...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvictTable drops the cached reader (and, through it, the cached
// blocks) for table num so subsequent reads return to the medium.
// Fault-injection hook: at-rest corruption is invisible while clean
// copies of the damaged blocks are still cached.
func (db *DB) EvictTable(tl *vclock.Timeline, num uint64) {
	db.tcache.evict(tl, num)
}

// healTableLocked rolls the corrupt successor num back to its retained
// shadow predecessors. It reports whether the heal happened; on false
// the caller surfaces the original corruption error. Caller holds
// db.mu.
func (db *DB) healTableLocked(tl *vclock.Timeline, num uint64) bool {
	plan := db.repairPlanFor(num)
	if plan == nil || !db.planApplicableLocked(plan) {
		return false
	}
	// Atomically claim the dependency. False means a poll resolved it
	// since: the predecessors are released and the corruption is
	// unrecoverable from shadows.
	if !db.tracker.CancelFor(num) {
		return false
	}

	edit := &version.VersionEdit{}
	for _, s := range plan.succs {
		edit.DeleteFile(s.level, s.meta.Number)
	}
	for _, p := range plan.preds {
		edit.AddFile(p.level, p.meta)
	}
	if err := db.logAndApply(tl, edit); err != nil {
		// recoverManifest already escalated to permanent; the version
		// rollback itself is applied in memory, so reads heal even as
		// writes stop.
		return true
	}

	// Quarantine the damaged successor for post-mortem. Its healthy
	// siblings are no longer live and age out as ordinary obsolete
	// tables, handles open for as long as a pinned reader needs them.
	db.quarantineTable(tl, num)
	for _, s := range plan.succs {
		if s.meta.Number != num {
			db.obsoleteTables = append(db.obsoleteTables, s.meta.Number)
		}
	}
	db.deleteObsolete(tl)
	db.m.tablesQuarantined.Inc()
	if db.trace != nil {
		db.trace.Instant(obs.TidForeground, "error", "heal.rollback", tl.Now(),
			obs.KV{K: "quarantined", V: num},
			obs.KV{K: "preds", V: len(plan.preds)})
	}
	return true
}

// healFromRead handles a corruption error surfaced by the read path:
// if it names a healable successor, the version is rolled back onto
// the shadow predecessors and the interrupted compaction re-triggered,
// and the caller retries the read against the repaired version.
func (db *DB) healFromRead(tl *vclock.Timeline, err error) bool {
	if !errors.Is(err, sstable.ErrCorrupt) {
		return false
	}
	var te *tableError
	if !errors.As(err, &te) {
		return false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.healTableLocked(tl, te.num) {
		return false
	}
	db.m.readsHealed.Inc()
	// Redo the cancelled compaction so the level shape recovers.
	db.kick(tl.Now())
	return true
}

// ScrubTables verifies every live table end to end, healing corrupt
// successors from their retained shadow predecessors. It returns how
// many tables were healed and the first unrecoverable error. Transient
// read faults are retried like any read.
func (db *DB) ScrubTables(tl *vclock.Timeline) (healed int, err error) {
	transient := 0
	for {
		serr := db.scrubOnce(tl)
		if serr == nil {
			return healed, nil
		}
		if db.healFromRead(tl, serr) {
			healed++
			continue
		}
		if vfs.IsTransient(serr) && transient < bgMaxRetries {
			transient++
			db.m.readRetries.Inc()
			tl.Advance(bgBackoff(transient - 1))
			continue
		}
		return healed, serr
	}
}

// scrubOnce scans every live table of the current read snapshot,
// returning the first error (tagged with its table).
func (db *DB) scrubOnce(tl *vclock.Timeline) error {
	if db.closed.Load() {
		return ErrClosed
	}
	rs := db.acquireReadState()
	defer db.releaseReadState(rs)
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range rs.v.Files[level] {
			r, err := db.tcache.open(tl, fm)
			if err != nil {
				return err
			}
			it := r.NewIterator(tl)
			for it.First(); it.Valid(); it.Next() {
			}
			if err := it.Err(); err != nil {
				return &tableError{num: fm.Number, err: err}
			}
		}
	}
	return nil
}
