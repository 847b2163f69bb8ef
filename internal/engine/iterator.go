package engine

import (
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// Iterator walks the database's user keys in ascending order, exposing
// the newest visible version of each and skipping tombstones. It pins
// a read snapshot for its lifetime: call Close when done, or the
// snapshot's tables are retained until the database closes.
type Iterator struct {
	db    *DB
	tl    *vclock.Timeline
	rs    *readState
	m     *iterator.Merging
	seq   keys.SeqNum
	key   []byte
	value []byte
	valid bool
	err   error
}

// NewIterator returns an iterator over the state as of the newest
// write. Like LevelDB's, it is a snapshot: writes after creation are
// not observed (the merged children reference the pinned memtable and
// tables at creation time).
func (db *DB) NewIterator(tl *vclock.Timeline) (*Iterator, error) {
	return db.newIterator(tl, keys.MaxSeqNum)
}

// newIterator builds an iterator bounded at snapSeq over a pinned
// read snapshot — it does not take db.mu.
func (db *DB) newIterator(tl *vclock.Timeline, snapSeq keys.SeqNum) (*Iterator, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if vis := db.visibleSeq.Load(); snapSeq > vis {
		snapSeq = vis
	}
	rs := db.acquireReadState()
	var children []iterator.Iterator
	children = append(children, memIter{rs.mem.NewIterator()})
	if rs.imm != nil {
		children = append(children, memIter{rs.imm.NewIterator()})
	}
	for level := 0; level < version.NumLevels; level++ {
		files := rs.v.Files[level]
		open := func(i int) (iterator.Iterator, error) {
			r, err := db.tcache.open(tl, files[i])
			if err != nil {
				return nil, err
			}
			return r.NewIterator(tl), nil
		}
		if level > 0 && len(files) > 0 && !db.opts.Picker.Fragmented && !hasHotFiles(files) {
			// Sorted, disjoint level: one lazy concatenating child, so
			// iterator construction does not open every table in the
			// store.
			largest := func(i int) []byte { return files[i].LargestUser() }
			children = append(children, iterator.NewLazyConcat(len(files), largest, open))
			continue
		}
		// Files may overlap: each gets its own child iterator.
		for i := range files {
			it, err := open(i)
			if err != nil {
				db.releaseReadState(rs)
				return nil, err
			}
			children = append(children, it)
		}
	}
	return &Iterator{
		db:  db,
		tl:  tl,
		rs:  rs,
		m:   iterator.NewMerging(children...),
		seq: snapSeq,
	}, nil
}

// Close releases the iterator's pinned read snapshot. It is safe to
// call more than once; the iterator must not be used afterwards.
func (it *Iterator) Close() error {
	if it.rs != nil {
		it.db.releaseReadState(it.rs)
		it.rs = nil
	}
	return it.err
}

// hasHotFiles reports whether any file at the level is a hot-zone
// output. Hot files keep the level's disjointness invariant, but the
// conservative per-file merge is kept for them since their placement
// follows the L2SM model rather than the plain leveled discipline.
func hasHotFiles(files []*version.FileMeta) bool {
	for _, f := range files {
		if f.Hot {
			return true
		}
	}
	return false
}

// First positions at the smallest live user key.
func (it *Iterator) First() {
	it.m.First()
	it.settle(false)
}

// Seek positions at the first live user key >= ukey.
func (it *Iterator) Seek(ukey []byte) {
	it.m.Seek(keys.MakeInternalKey(nil, ukey, it.seq, keys.KindSeek))
	it.settle(false)
}

// Next advances to the following live user key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	it.m.Next()
	it.settle(true)
}

// settle advances the merged cursor to the newest visible version of
// the next undeleted user key at or after the current position.
// skipCurrent skips remaining (older) versions of the key just
// emitted.
func (it *Iterator) settle(skipCurrent bool) {
	it.valid, it.err = false, nil
	var skipKey []byte
	haveSkip := false
	if skipCurrent && it.key != nil {
		skipKey, haveSkip = it.key, true
	}
	for ; it.m.Valid(); it.m.Next() {
		it.tl.Advance(iterCPU)
		ikey := it.m.Key()
		ukey, seq, kind, ok := keys.ParseInternalKey(ikey)
		if !ok {
			continue
		}
		if seq > it.seq {
			continue // newer than the iterator's snapshot
		}
		if haveSkip && keys.CompareUser(ukey, skipKey) == 0 {
			continue
		}
		if kind == keys.KindDelete {
			skipKey = append(skipKey[:0], ukey...)
			haveSkip = true
			continue
		}
		it.key = append(it.key[:0], ukey...)
		it.value = append(it.value[:0], it.m.Value()...)
		it.valid = true
		return
	}
	it.err = it.m.Err()
}

// Valid reports whether the iterator is at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key (valid until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (valid until the next move).
func (it *Iterator) Value() []byte { return it.value }

// Err reports an iteration error.
func (it *Iterator) Err() error { return it.err }
