package engine

// File lifetime (DESIGN.md §5.2): a table, a log or a manifest of a live
// store is unlinked in this file and nowhere else (scripts/forkcount.sh
// holds the line). A file stays while the current version, the live WAL
// or MANIFEST names it, while a reader pins it (pins), while the NobLSM
// tracker protects it as a shadow — the tracker decides when a shadow is
// no longer needed, never whether it can die yet (shadowReleased) — and,
// for a log, while its gate is shut (safeLogNumber). Everything else is
// garbage, noted by number where it becomes garbage and disposed of by
// deleteObsolete.

import (
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// logGate gates the deletion of logs below Log on the MANIFEST being
// durably committed past ManifestOff.
type logGate struct {
	Log         uint64
	ManifestOff int64
}

// safeLogNumber reports the newest log number whose predecessors may
// be deleted. With a synced manifest that is simply the current WAL;
// in NobLSM mode it is the highest gate whose manifest edit has become
// durable via asynchronous commit.
func (db *DB) safeLogNumber(tl *vclock.Timeline) uint64 {
	if db.tracker == nil {
		return db.walNumber
	}
	committed := db.fs.CommittedSize(tl, db.manifestFile.Ino())
	var safe uint64
	remaining := db.logGates[:0]
	for _, g := range db.logGates {
		if committed >= g.ManifestOff {
			if g.Log > safe {
				safe = g.Log
			}
		} else {
			remaining = append(remaining, g)
		}
	}
	db.logGates = remaining
	// Zero: nothing provably durable yet, keep all logs.
	return safe
}

// pins returns the tables outside the current version that somebody
// can still read: the tables of every superseded readState a reader
// holds. The map is nil when nothing is pinned. It takes the leaf lock
// rsMu only, so it answers with or without db.mu; a table that has left
// the version can gain no pin afterwards — readers acquire the
// published readState, which does not name it — so an unpinned answer
// stays true. A backup needs no pin: it links what it exports under
// db.mu, before any of it can be unlinked (checkpoint.go).
func (db *DB) pins() (tables map[uint64]bool) {
	db.rsMu.Lock()
	defer db.rsMu.Unlock()
	for rs := range db.readStates {
		if rs.v == db.rs.v {
			continue // the current version: a candidate is in none
		}
		if tables == nil {
			tables = make(map[uint64]bool)
		}
		for level := 0; level < version.NumLevels; level++ {
			for _, fm := range rs.v.Files[level] {
				tables[fm.Number] = true
			}
		}
	}
	return tables
}

// disposeTable is the one decision on a table that no current version
// names and no dependency protects: unless pinned holds it, it is
// unlinked, and only then does its cached handle close — a pinned
// reader keeps reading through it. Reports whether the table is gone.
func (db *DB) disposeTable(tl *vclock.Timeline, num uint64, pinned map[uint64]bool) bool {
	if pinned[num] {
		return false
	}
	db.fs.Remove(tl, TableName(num))
	db.tcache.evict(tl, num)
	return true
}

// shadowReleased is the tracker's release hook: f is an ordinary
// obsolete table from here on. Unpinned — always, unless an iterator
// outlives the dependency — it is unlinked at the poll's instant on the poller's timeline; pinned, it waits for the next
// deleteObsolete. Polls come from Gets without db.mu and from commits
// with it, hence the leaf-locked queue.
func (db *DB) shadowReleased(tl *vclock.Timeline, num uint64) {
	if !db.disposeTable(tl, num, db.pins()) {
		db.rsMu.Lock()
		db.releasedPinned = append(db.releasedPinned, num)
		db.rsMu.Unlock()
	}
}

// deleteObsolete disposes of the recorded candidates. It never lists
// the directory: a background goroutine may be writing a table no
// version references yet, which a scan would take for garbage, and on a
// compaction-bound workload listing, sorting and parsing a large
// directory after every flush and compaction was a tenth of the host
// time. Candidates the NobLSM tracker protects are dropped outright
// (they come back through shadowReleased); candidates pinned by a read
// snapshot, and logs whose gate has not opened, stay queued for the
// next call. The pass costs its timeline what the scan
// did, candidates or none: the listing, and in NobLSM mode the
// committed-size query behind safeLogNumber. Caller holds db.mu.
func (db *DB) deleteObsolete(tl *vclock.Timeline) {
	tl.Advance(getChildrenCost)
	safeLog := db.safeLogNumber(tl)
	db.rsMu.Lock()
	db.obsoleteTables = append(db.obsoleteTables, db.releasedPinned...)
	db.releasedPinned = db.releasedPinned[:0]
	db.rsMu.Unlock()
	if len(db.obsoleteTables) == 0 && len(db.obsoleteLogs) == 0 {
		return
	}
	pinned := db.pins()
	keepTables := db.obsoleteTables[:0]
	for _, num := range db.obsoleteTables {
		if db.tracker != nil && db.tracker.Protected(num) {
			continue
		}
		if !db.disposeTable(tl, num, pinned) {
			keepTables = append(keepTables, num)
		}
	}
	db.obsoleteTables = keepTables
	keepLogs := db.obsoleteLogs[:0]
	for _, num := range db.obsoleteLogs {
		if num < safeLog {
			db.fs.Remove(tl, LogName(num))
		} else {
			keepLogs = append(keepLogs, num)
		}
	}
	db.obsoleteLogs = keepLogs
}

// deleteObsoleteFiles is Open's pass over the whole directory: it
// removes files no version references — old WALs, old manifests, and
// tables that are neither live nor protected as NobLSM shadow
// predecessors — and notes the logs it has to keep for now as
// candidates, so that deleteObsolete finds them later. After a power
// cut that is every replayed log: safeLogNumber is 0 until the recovery
// flush's MANIFEST edit commits, and no rotation ever noted them.
func (db *DB) deleteObsoleteFiles(tl *vclock.Timeline) {
	// Nothing is pinned yet: no reader holds a superseded version.
	live := db.current.LiveFiles()
	safeLog := db.safeLogNumber(tl)
	for _, name := range db.fs.List(tl) {
		kind, num, ok := ParseFileName(name)
		if !ok {
			continue
		}
		switch kind {
		case KindLog:
			if num < safeLog {
				db.fs.Remove(tl, name)
			} else if num < db.walNumber {
				db.obsoleteLogs = append(db.obsoleteLogs, num)
			}
		case KindTable:
			if !live[num] && (db.tracker == nil || !db.tracker.Protected(num)) {
				db.disposeTable(tl, num, nil)
			}
		case KindManifest:
			if num < db.manifestNumber {
				db.fs.Remove(tl, name)
			}
		}
	}
}

// removeSupersededManifests unlinks what a manifest rewrite made
// garbage (recoverManifest): the superseded file and any snapshot a
// failed attempt left. The path is rare enough to list the directory.
func (db *DB) removeSupersededManifests(tl *vclock.Timeline) {
	for _, name := range db.fs.List(tl) {
		if kind, num, ok := ParseFileName(name); ok && kind == KindManifest && num < db.manifestNumber {
			db.fs.Remove(tl, name)
		}
	}
}

// abandonOutputs closes and unlinks the tables of a flush or compaction
// that failed before its install: no version will ever name them, so
// they are no candidates for deleteObsolete — nothing can pin them.
func (db *DB) abandonOutputs(tl *vclock.Timeline, files []*outputFile) {
	for _, of := range files {
		of.f.Close(tl)
		db.fs.Remove(tl, TableName(of.meta.Number))
	}
}

// quarantineTable renames a corrupt table out of ParseFileName's
// namespace, where no pass will look for it, and closes its handle: the
// rolled-back version no longer names it (heal.go).
func (db *DB) quarantineTable(tl *vclock.Timeline, num uint64) {
	db.fs.Rename(tl, TableName(num), TableName(num)+".corrupt")
	db.tcache.evict(tl, num)
}
