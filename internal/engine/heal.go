package engine

// Self-healing reads from retained predecessor SSTables.
//
// NobLSM retains a compaction's input tables (predecessors) on disk as
// shadow backups until every output's (successor's) inode has
// journal-committed (paper §4.3). When a read or compaction hits
// sstable.ErrCorrupt on a live table, the engine plans the heal the way
// Open would plan recovery had a crash lost that table: planRecovery
// over the edits of the manifest in use, every other table valid while
// it is live or retained. Unless the plan refuses, it
//
//  1. claims the dependency of every undone compaction, all or none
//     (CancelFor fails if a poll has resolved one and released its
//     predecessors);
//  2. applies one version edit that turns the current version into
//     the planned one: predecessors back at their levels, and any
//     newer table the planner moved back above them;
//  3. quarantines the corrupt table under a ".corrupt" suffix (outside
//     ParseFileName's namespace, so disposal ignores it) and queues the
//     other outputs it undid as obsolete;
//  4. re-serves the read and re-triggers the compaction.
//
// The plan refuses when it needs repair, undoes nothing, or undoes a
// flush, whose log is gone at runtime.

import (
	"slices"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// fileAtLevel reports whether the version holds table num at level.
func fileAtLevel(v *version.Version, level int, num uint64) bool {
	for _, f := range v.Files[level] {
		if f.Number == num {
			return true
		}
	}
	return false
}

// decodedEdits decodes the manifest's records afresh, so planning
// touches no live FileMeta. Caller holds db.mu.
func (db *DB) decodedEdits() []*version.VersionEdit {
	edits := make([]*version.VersionEdit, len(db.edits))
	for i, rec := range db.edits {
		e, err := version.DecodeEdit(rec)
		if err != nil {
			return nil // nothing to plan over: every heal is refused
		}
		edits[i] = e
	}
	return edits
}

// planHealLocked plans the heal of table corrupt over edits. It returns
// the plan, the outputs it undoes — the successors whose dependencies
// the heal claims; an undone trivial move's output is live again — and
// whether the heal may go ahead. Caller holds db.mu, in a NobLSM store.
func (db *DB) planHealLocked(edits []*version.VersionEdit, corrupt uint64) (recoveryPlan, []uint64, bool) {
	live := db.current.LiveFiles()
	plan := planRecovery(edits, func(num uint64) bool {
		return num != corrupt && (live[num] || db.tracker.Protected(num))
	})
	ok := !plan.needsRepair && len(plan.undone) > 0
	for _, i := range plan.undone {
		ok = ok && len(edits[i].DeletedFiles) > 0 // not a flush
	}
	var condemned []uint64
	for n := range plan.condemned {
		condemned = append(condemned, n)
	}
	slices.Sort(condemned)
	return plan, condemned, ok
}

// HealableSuccessors lists the live successors of unresolved
// dependencies whose heal would, right now, go ahead if they were
// found corrupt — introspection for the fault-schedule explorer and
// tests.
func (db *DB) HealableSuccessors() []uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tracker == nil {
		return nil
	}
	held := make(map[uint64]bool)
	for _, d := range db.tracker.Inventory().Deps {
		for _, s := range d.Succs {
			held[s] = true
		}
	}
	edits := db.decodedEdits()
	live := db.current.LiveFiles()
	var out []uint64
	for s := range held {
		_, claim, ok := db.planHealLocked(edits, s)
		if ok && live[s] && !slices.ContainsFunc(claim, func(n uint64) bool { return !held[n] }) {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// EvictTable drops the cached reader (and, through it, the cached
// blocks) for table num so subsequent reads return to the medium.
// Fault-injection hook: at-rest corruption is invisible while clean
// copies of the damaged blocks are still cached.
func (db *DB) EvictTable(tl *vclock.Timeline, num uint64) {
	db.tcache.evict(tl, num)
}

// healTableLocked rolls the version back from the corrupt table num
// onto retained shadow predecessors. It reports whether the heal
// happened; on false the caller surfaces the original corruption
// error. Caller holds db.mu.
func (db *DB) healTableLocked(tl *vclock.Timeline, num uint64) bool {
	if db.tracker == nil {
		return false
	}
	plan, condemned, ok := db.planHealLocked(db.decodedEdits(), num)
	if !ok || !db.tracker.CancelFor(condemned...) {
		return false
	}
	edit := &version.VersionEdit{}
	for level := range version.NumLevels {
		for _, f := range db.current.Files[level] {
			if !fileAtLevel(plan.version, level, f.Number) {
				edit.DeleteFile(level, f.Number)
			}
		}
		for _, f := range plan.version.Files[level] {
			if !fileAtLevel(db.current, level, f.Number) {
				edit.AddFile(level, f)
			}
		}
	}
	if err := db.logAndApply(tl, edit); err != nil {
		// recoverManifest already escalated to permanent; the version
		// rollback itself is applied in memory, so reads heal even as
		// writes stop.
		return true
	}

	// Quarantine the damaged table for post-mortem. The other undone
	// outputs age out as ordinary obsolete tables, handles open for as
	// long as a pinned reader needs them.
	db.quarantineTable(tl, num)
	for _, n := range condemned {
		if n != num {
			db.obsoleteTables = append(db.obsoleteTables, n)
		}
	}
	db.deleteObsolete(tl)
	db.m.tablesQuarantined.Inc()
	if db.trace != nil {
		db.trace.Instant(obs.TidForeground, "error", "heal.rollback", tl.Now(),
			obs.KV{K: "quarantined", V: num},
			obs.KV{K: "undone", V: len(plan.undone)})
	}
	return true
}

// healFromRead heals table num for a read, which holds no lock: the
// version is rolled back onto the shadow predecessors and the
// interrupted compaction re-triggered, so the read runs again against
// the repaired version.
func (db *DB) healFromRead(tl *vclock.Timeline, num uint64) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.healTableLocked(tl, num) {
		return false
	}
	db.m.readsHealed.Inc()
	db.kick(tl.Now())
	return true
}

// ScrubTables verifies every live table end to end under the failure
// rule (bgerror.go), healing corrupt successors from their retained
// shadow predecessors. It returns how many tables were healed and the
// error the rule gave up on.
func (db *DB) ScrubTables(tl *vclock.Timeline) (healed int, err error) {
	var t tally
	for {
		if err = db.scrubOnce(tl); err == nil || !db.absorbRead(tl, &t, err, nil) {
			return t.heals, err
		}
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
