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
	"errors"
	"sync"

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

// tableCursor is the table a lookup last opened and the sstable cursor
// it probes with. MultiGet keeps one across its sorted keys, forgetting
// the table at each level, so consecutive keys landing in one table
// share the handle; a Get's files are all distinct. Cursors are pooled (getCursor): the seek key
// and the sstable cursor's key buffers outlive the lookup, so a lookup
// allocates only the value it returns.
type tableCursor struct {
	num    uint64
	r      *sstable.Reader
	it     sstable.Iter
	seek   []byte // the lookup's internal seek key
	probes int64  // table probes past the bloom filter (multiget.probes)
	newest bool   // seek's sequence is past every table's (seekingNewest)
}

// seekingNewest reports whether a read at snapSeq, clamped to the
// visible sequence before it pinned its read state, seeks past every
// version the state's tables hold: no write was published since the
// clamp, and a table holds only published writes, since a memtable is
// parked under db.mu after its writes are published.
func (db *DB) seekingNewest(snapSeq keys.SeqNum) bool {
	return db.visibleSeq.Load() == snapSeq
}

var cursorPool = sync.Pool{New: func() any { return new(tableCursor) }}

// getCursor borrows a cursor with no table open.
func getCursor() *tableCursor { return cursorPool.Get().(*tableCursor) }

// forget closes the cursor's view of its table: the next probe opens
// one afresh.
func (c *tableCursor) forget() {
	c.it.Release()
	c.num, c.r = 0, nil
}

// release hands the cursor back; values it returned were copied out.
func (c *tableCursor) release() {
	c.forget()
	c.probes = 0
	cursorPool.Put(c)
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
		c.it.Reset(c.r, tl)
		c.it.Seek(seek)
		if decoded, declared := c.it.Decoded(); declared > 0 {
			db.m.getDecodedBytes.Add(int64(decoded))
			db.m.getDeclaredBytes.Add(int64(declared))
		}
		if err := c.it.Err(); err != nil {
			return nil, 0, false, &tableError{num: fm.Number, err: err}
		}
		var ukey []byte
		var seq keys.SeqNum
		var k keys.Kind
		ok := c.it.Valid()
		if ok {
			ukey, seq, k, ok = keys.ParseInternalKey(c.it.Key())
		}
		if !ok || keys.CompareUser(ukey, key) != 0 {
			// A seek for the newest version lands on the key's newest
			// version when the table holds one, so the table held
			// none: its filter, if it has one, let a false positive
			// through. A seek at an older snapshot may have landed
			// past versions newer than it, which proves nothing.
			if c.newest && c.r.Filtered() {
				db.m.getBloomFalsePositives.Inc()
			}
			continue
		}
		if !found || seq > bestSeq {
			bestSeq, kind, found = seq, k, true
			val = append(val[:0], c.it.Value()...)
		}
	}
	return val, kind, found, nil
}

// Get returns the newest visible value of key, or ErrNotFound.
func (db *DB) Get(tl *vclock.Timeline, key []byte) ([]byte, error) {
	v, _, err := db.getObserved(tl, key, keys.MaxSeqNum, db.tel != nil)
	return v, err
}

// GetObserved is Get plus the operation's attribution span, for
// callers (and tests) that need per-op phase durations rather than the
// aggregate timers. The span is populated whether or not telemetry is
// enabled; the aggregate plane only accumulates when it is.
func (db *DB) GetObserved(tl *vclock.Timeline, key []byte) ([]byte, obs.OpSpan, error) {
	return db.getObserved(tl, key, keys.MaxSeqNum, true)
}

// get reads key as of sequence snapSeq (the snapshot read path).
func (db *DB) get(tl *vclock.Timeline, key []byte, snapSeq keys.SeqNum) ([]byte, error) {
	v, _, err := db.getObserved(tl, key, snapSeq, db.tel != nil)
	return v, err
}

// getObserved reads key as of sequence snapSeq under the failure rule
// (bgerror.go): a transient fault is backed off and a corrupt successor
// whose shadow predecessors are still retained is healed, and the read
// runs again. Fault-free reads take the loop's single fall-through
// iteration, so the deterministic figures are untouched. With observed
// set, an attribution span is threaded through the attempt(s): probe
// time in PhaseReadMem/TableOpen/TableGet, healing in PhaseReadHeal,
// retry backoff in PhaseReadBackoff.
func (db *DB) getObserved(tl *vclock.Timeline, key []byte, snapSeq keys.SeqNum, observed bool) ([]byte, obs.OpSpan, error) {
	var span obs.OpSpan
	var sp *obs.OpSpan
	if observed {
		sp = &span
		sp.Begin(tl.Now(), obs.PhaseReadMem)
	}
	var t tally
	for {
		v, err := db.getOnce(tl, key, snapSeq, sp)
		if err == nil || errors.Is(err, ErrNotFound) || !db.absorbRead(tl, &t, err, sp) {
			sp.Finish(tl.Now())
			db.tel.ObserveRead(sp)
			return v, span, err
		}
	}
}

// getOnce performs one lookup attempt as of sequence snapSeq
// (MaxSeqNum = latest). Reads do not take db.mu: they pin the
// published {memtable, version} snapshot and read through it
// lock-free. Only the seek-compaction bookkeeping — a version-state
// mutation — briefly acquires db.mu. sp (nil when attribution is off)
// enters in PhaseReadMem and is switched to TableOpen/TableGet around
// each table probe.
func (db *DB) getOnce(tl *vclock.Timeline, key []byte, snapSeq keys.SeqNum, sp *obs.OpSpan) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if vis := db.visibleSeq.Load(); snapSeq > vis {
		snapSeq = vis
	}
	tl.Advance(readCPU)
	db.m.gets.Inc()
	if db.tracker != nil {
		db.tracker.MaybePoll(tl)
	}
	rs := db.acquireReadState()
	released := false
	release := func() {
		if !released {
			released = true
			db.releaseReadState(rs)
		}
	}
	defer release()

	if v, deleted, found := rs.memGet(key, snapSeq); found {
		if deleted {
			return nil, ErrNotFound
		}
		db.m.getHits.Inc()
		return append([]byte(nil), v...), nil
	}

	c := getCursor()
	defer c.release()
	c.seek = keys.MakeInternalKey(c.seek[:0], key, snapSeq, keys.KindSeek)
	c.newest = db.seekingNewest(snapSeq)
	var lk lookup
	charge := func() {
		// The value (if any) is already copied out: drop the read
		// pin first, so a seek compaction triggered below sees this
		// lookup's version as unreferenced and can dispose of its
		// obsolete tables immediately (identical deletion timing to
		// the serialized engine).
		release()
		db.m.getFilesExamined.Add(int64(lk.examined))
		// LevelDB charges the first file examined when a lookup
		// touched more than one file. That bookkeeping mutates version
		// state, so it is the one part of the read path that takes
		// db.mu.
		if lk.examined < 2 || lk.first == nil {
			return
		}
		db.mu.Lock()
		db.chargeSeek(tl, lk.first, lk.firstLevel)
		db.mu.Unlock()
	}
	for level := 0; level < version.NumLevels; level++ {
		val, kind, found, err := db.probeLevel(tl, sp, c, &lk, rs.v, level, key, c.seek)
		if err != nil {
			return nil, err
		}
		if found {
			charge()
			if kind == keys.KindDelete {
				return nil, ErrNotFound
			}
			db.m.getHits.Inc()
			return val, nil
		}
	}
	charge()
	return nil, ErrNotFound
}
