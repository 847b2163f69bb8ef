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
	"noblsm/internal/keys"
	"noblsm/internal/memtable"
	"noblsm/internal/obs"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
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

// memGet looks key up in the memtable, then in the parked immutable
// one, which is newer than every table.
func (rs *readState) memGet(key []byte, snapSeq keys.SeqNum) (v []byte, deleted, found bool) {
	v, deleted, found = rs.mem.Get(key, snapSeq)
	if !found && rs.imm != nil {
		v, deleted, found = rs.imm.Get(key, snapSeq)
	}
	return v, deleted, found
}

// tableCursor is the table a lookup last opened. MultiGet keeps one
// per level across its sorted keys, so consecutive keys landing in one
// table share the handle; a Get's files are all distinct.
type tableCursor struct {
	num    uint64
	r      *sstable.Reader
	probes int64 // table probes past the bloom filter (multiget.probes)
}

// lookup is one key's seek-compaction bookkeeping: files examined and
// the first of them (chargeSeek).
type lookup struct {
	examined   int
	first      *version.FileMeta
	firstLevel int
}

// probeLevel finds the newest version of key in one level of v as of
// seek, key's internal seek key. Several candidate files of a level
// can hold versions of the key (L0 always; fragmented levels;
// hot-retained outputs whose file numbers do not track data recency),
// so the newest is selected by sequence number, not by file order. The
// value is copied out. A table that fails to open returns its error
// as is; one that fails to read returns it tagged with the table.
func (db *DB) probeLevel(tl *vclock.Timeline, sp *obs.OpSpan, c *tableCursor, lk *lookup,
	v *version.Version, level int, key, seek []byte) (val []byte, kind keys.Kind, found bool, err error) {
	var bestSeq keys.SeqNum
	for _, fm := range v.ForLookup(level, key, db.opts.Picker.Fragmented) {
		if c.r == nil || fm.Number != c.num {
			sp.To(tl.Now(), obs.PhaseReadTableOpen)
			r, err := db.tcache.open(tl, fm)
			if err != nil {
				return nil, 0, false, err
			}
			c.num, c.r = fm.Number, r
		}
		lk.examined++
		if lk.first == nil {
			lk.first, lk.firstLevel = fm, level
		}
		sp.To(tl.Now(), obs.PhaseReadTableGet)
		if !c.r.MayContain(key) {
			continue
		}
		c.probes++
		ikey, tv, ok, err := c.r.Get(tl, seek)
		if err != nil {
			return nil, 0, false, &tableError{num: fm.Number, err: err}
		}
		if !ok {
			continue
		}
		ukey, seq, k, ok := keys.ParseInternalKey(ikey)
		if !ok || keys.CompareUser(ukey, key) != 0 {
			continue
		}
		if !found || seq > bestSeq {
			bestSeq, kind, found = seq, k, true
			val = append(val[:0], tv...)
		}
	}
	return val, kind, found, nil
}
