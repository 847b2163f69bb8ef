package engine

// A readState is an atomically published {memtable, immutable
// memtable, version} triple: the engine's read snapshot. Get and iterators acquire the current
// readState (a refcount under a leaf mutex, never DB.mu), read
// through it lock-free — the memtable is a single-writer/multi-reader
// skiplist and versions are immutable once built — and release it
// when done. Writers publish a fresh readState whenever the memtable
// rotates or a version edit installs (logAndApply); the disposal
// decision (disposal.go, pins) unions the tables of every superseded
// readState still referenced, so a table cannot be unlinked while a
// pinned reader can still probe it.
//
// Lock order: DB.mu → DB.rsMu. Readers take rsMu alone (never while
// holding it acquire DB.mu); writers hold DB.mu when publishing.

import (
	"noblsm/internal/memtable"
	"noblsm/internal/version"
)

type readState struct {
	mem *memtable.MemTable
	// imm is the parked immutable memtable until its flush lands in v
	// (with the inline executor, for the duration of that flush, or for
	// good after a permanent flush error).
	imm *memtable.MemTable
	v   *version.Version
	// refs and live are guarded by DB.rsMu. live marks the currently
	// published readState; a superseded one is forgotten when its
	// last reference drops.
	refs int
	live bool
}

// publishReadState installs the current {db.mem, sched.imm, db.current}
// triple as the read snapshot. Callers hold db.mu.
func (db *DB) publishReadState() {
	db.rsMu.Lock()
	if db.rs != nil {
		db.rs.live = false
		if db.rs.refs == 0 {
			delete(db.readStates, db.rs)
		}
	}
	rs := &readState{mem: db.mem, imm: db.sched.imm, v: db.current, live: true}
	db.rs = rs
	db.readStates[rs] = struct{}{}
	db.rsMu.Unlock()
	// Every L0/imm change flows through here: refresh the admission
	// governor's debt signal on the same edge.
	db.updateGovernorDebt()
}

// acquireReadState pins and returns the current read snapshot.
func (db *DB) acquireReadState() *readState {
	db.rsMu.Lock()
	rs := db.rs
	rs.refs++
	db.rsMu.Unlock()
	return rs
}

// releaseReadState unpins rs, forgetting it once superseded and
// unreferenced.
func (db *DB) releaseReadState(rs *readState) {
	db.rsMu.Lock()
	rs.refs--
	if rs.refs == 0 && !rs.live {
		delete(db.readStates, rs)
	}
	db.rsMu.Unlock()
}
