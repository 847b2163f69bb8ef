package engine

// A readState is an atomically published {memtable, immutable
// memtable, version} triple: the engine's read snapshot. Point lookups
// and iterators acquire the current readState (a refcount under a leaf
// mutex, never DB.mu), read through it lock-free — the memtable is a
// single-writer/multi-reader skiplist and versions are immutable once
// built — and release it when done. Writers publish a fresh readState
// whenever the memtable rotates or a version edit installs
// (logAndApply); the disposal decision (disposal.go, pins) unions the
// tables of every superseded readState still referenced, so a table
// cannot be unlinked while a pinned reader can still probe it.
//
// Lock order: DB.mu → DB.rsMu. Readers take rsMu alone (never while
// holding it acquire DB.mu); writers hold DB.mu when publishing.
//
// A point lookup is one walk, resolve: a Get is a batch of one and a
// MultiGet a sorted batch of many, each followed by chargeLookups, the
// seek charges of its lookups.

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

// tableCursor is the table a walk last opened and the sstable cursor
// it probes with. resolve keeps one across a batch's sorted keys, so
// consecutive keys landing in one table share the handle; no table is
// in two levels of a version, so a level's first probe opens its own.
// Cursors are pooled (getCursor): the seek key and the sstable
// cursor's key buffers outlive the walk, so a walk allocates only the
// values it copies out.
type tableCursor struct {
	num    uint64
	r      *sstable.Reader
	it     sstable.Iter
	seek   []byte // the key's internal seek key
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

// release closes the cursor's view of its table and hands the cursor
// back; values it returned were copied out.
func (c *tableCursor) release() {
	c.it.Release()
	c.num, c.r, c.probes = 0, nil, 0
	cursorPool.Put(c)
}

// probeLevel finds the newest version of r's key in one level of v as
// of c.seek, the key's internal seek key, and counts the files it
// examines in r. Several candidate files of a level can hold versions
// of the key (L0 always; fragmented levels; hot-retained outputs whose
// file numbers do not track data recency), so the newest is selected
// by sequence number, not by file order. The value is copied out. A
// table that fails to open returns its error as is; one that fails to
// read returns it tagged with the table.
func (db *DB) probeLevel(tl *vclock.Timeline, sp *obs.OpSpan, c *tableCursor, r *pointRead,
	v *version.Version, level int) (val []byte, kind keys.Kind, found bool, err error) {
	key := r.key
	var bestSeq keys.SeqNum
	for _, fm := range v.ForLookup(level, key, db.opts.Picker.Fragmented) {
		if c.r == nil || fm.Number != c.num {
			sp.To(tl.Now(), obs.PhaseReadTableOpen)
			tr, err := db.tcache.open(tl, fm)
			if err != nil {
				return nil, 0, false, err
			}
			c.num, c.r = fm.Number, tr
		}
		r.examined++
		if r.first == nil {
			r.first, r.firstLevel = fm, level
		}
		sp.To(tl.Now(), obs.PhaseReadTableGet)
		if !c.r.MayContain(key) {
			continue
		}
		c.probes++
		c.it.Reset(c.r, tl)
		c.it.Seek(c.seek)
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
// (MaxSeqNum = latest): a batch of one, resolved and charged as
// MultiGet's keys are. An attempt that meets a table error charges no
// seek and counts no files examined; its retry does.
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
	reads, order := [1]pointRead{{key: key}}, [1]int{}
	if _, err := db.resolve(tl, sp, reads[:], order[:], snapSeq); err != nil {
		return nil, err
	}
	db.chargeLookups(tl, reads[:])
	return reads[0].val, reads[0].err
}

// pointRead is one key of a point lookup: once done, its value (copied
// out; nil for an empty one) or ErrNotFound, and the seek-compaction
// bookkeeping of its walk: files examined and the first of them.
type pointRead struct {
	key        []byte
	val        []byte
	err        error
	done       bool
	examined   int
	first      *version.FileMeta
	firstLevel int
}

// resolve looks up the keys of reads as of snapSeq, already clamped to
// the visible sequence; order indexes reads sorted by user key and is
// overwritten. Reads do not take db.mu: resolve pins the published
// {memtable, version} snapshot once and reads through it lock-free. The
// memtables resolve what they can; the levels are then walked top-down
// over the keys still unresolved, in order, so consecutive keys landing
// in one table share its open handle. sp (nil when attribution is off)
// enters in PhaseReadMem and is switched to TableOpen/TableGet around
// each table probe. A table error stops the walk and is returned, the
// keys it had not resolved left not done. The pin is dropped before
// resolve returns, so the seek charges that follow (chargeLookups) see
// this read's version unreferenced. probes counts the table probes past
// the bloom filter.
func (db *DB) resolve(tl *vclock.Timeline, sp *obs.OpSpan, reads []pointRead, order []int, snapSeq keys.SeqNum) (probes int64, err error) {
	rs := db.acquireReadState()
	defer db.releaseReadState(rs)
	pending := order[:0]
	for _, i := range order {
		r := &reads[i]
		v, deleted, found := rs.memGet(r.key, snapSeq)
		if !found {
			pending = append(pending, i)
			continue
		}
		if !deleted {
			v = append([]byte(nil), v...)
		}
		db.settle(r, v, deleted)
	}
	if len(pending) == 0 {
		return 0, nil
	}
	c := getCursor()
	defer c.release()
	c.newest = db.seekingNewest(snapSeq)
	seekFor := -1 // the read c.seek was made for
	for level := 0; level < version.NumLevels && len(pending) > 0; level++ {
		next := pending[:0]
		for _, i := range pending {
			r := &reads[i]
			if i != seekFor {
				c.seek = keys.MakeInternalKey(c.seek[:0], r.key, snapSeq, keys.KindSeek)
				seekFor = i
			}
			val, kind, found, err := db.probeLevel(tl, sp, c, r, rs.v, level)
			if err != nil {
				return c.probes, err
			}
			if found {
				db.settle(r, val, kind == keys.KindDelete)
				continue
			}
			next = append(next, i)
		}
		pending = next
	}
	for _, i := range pending {
		reads[i].done, reads[i].err = true, ErrNotFound
	}
	return c.probes, nil
}

// settle marks r done with val, which it owns, or, deleted, with
// ErrNotFound.
func (db *DB) settle(r *pointRead, val []byte, deleted bool) {
	r.done = true
	if deleted {
		r.err = ErrNotFound
		return
	}
	r.val = val
	db.m.getHits.Inc()
}

// chargeLookups counts the files reads examined and applies LevelDB's
// seek charge (chargeSeek) to the first file of each lookup that
// touched more than one, in reads' order. That bookkeeping mutates
// version state, so it is the one part of the read path that takes
// db.mu, once for all of reads. The caller has unpinned its read
// state, so a seek compaction started here can dispose of the read's
// obsolete tables at once (identical deletion timing to the serialized
// engine).
func (db *DB) chargeLookups(tl *vclock.Timeline, reads []pointRead) {
	var examined int64
	locked := false
	for i := range reads {
		r := &reads[i]
		examined += int64(r.examined)
		if r.examined < 2 || r.first == nil {
			continue
		}
		if !locked {
			locked = true
			db.mu.Lock()
		}
		db.chargeSeek(tl, r.first, r.firstLevel)
	}
	if locked {
		db.mu.Unlock()
	}
	db.m.getFilesExamined.Add(examined)
}
