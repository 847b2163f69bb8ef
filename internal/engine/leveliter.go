package engine

import (
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// levelIter is LevelDB's concatenating iterator over one sorted,
// non-overlapping level: it walks the level's files in key order and
// opens each table lazily on first touch, so constructing an iterator
// over a large store does not open (or charge for) every file. A table
// that cannot be opened, or whose iterator stops on an error, ends the
// level there: the error stays in Err, and no later file is visited.
type levelIter struct {
	db    *DB
	tl    *vclock.Timeline
	files []*version.FileMeta
	idx   int
	cur   iterator.Iterator
	err   error
}

func newLevelIter(db *DB, tl *vclock.Timeline, files []*version.FileMeta) *levelIter {
	return &levelIter{db: db, tl: tl, files: files, idx: -1}
}

// openIdx opens the table at l.idx; false on error or out of range.
func (l *levelIter) openIdx() bool {
	l.cur = nil
	if l.idx < 0 || l.idx >= len(l.files) {
		return false
	}
	r, err := l.db.tcache.open(l.tl, l.files[l.idx])
	if err != nil {
		l.err = err
		return false
	}
	l.cur = r.NewIterator(l.tl)
	return true
}

// failed reports whether the current table's iterator stopped on an
// error, keeping that error as the level's.
func (l *levelIter) failed() bool {
	if err := l.cur.Err(); err != nil {
		l.err = err
		return true
	}
	return false
}

// First implements iterator.Iterator.
func (l *levelIter) First() {
	l.idx = 0
	for l.idx < len(l.files) {
		if !l.openIdx() {
			return
		}
		l.cur.First()
		if l.cur.Valid() || l.failed() {
			return
		}
		l.idx++
	}
	l.cur = nil
}

// Seek implements iterator.Iterator.
func (l *levelIter) Seek(target []byte) {
	// Binary search for the first file whose largest key is >= target.
	tu := keys.UserKey(target)
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.CompareUser(l.files[mid].LargestUser(), tu) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.idx = lo
	seekInFile := true
	for l.idx < len(l.files) {
		if !l.openIdx() {
			return
		}
		if seekInFile {
			l.cur.Seek(target)
			seekInFile = false
		} else {
			l.cur.First()
		}
		if l.cur.Valid() || l.failed() {
			return
		}
		l.idx++
	}
	l.cur = nil
}

// Next implements iterator.Iterator.
func (l *levelIter) Next() {
	if l.cur == nil {
		return
	}
	l.cur.Next()
	for !l.cur.Valid() {
		if l.failed() {
			return
		}
		l.idx++
		if l.idx >= len(l.files) {
			l.cur = nil
			return
		}
		if !l.openIdx() {
			return
		}
		l.cur.First()
	}
}

// Valid implements iterator.Iterator.
func (l *levelIter) Valid() bool { return l.cur != nil && l.cur.Valid() }

// Key implements iterator.Iterator.
func (l *levelIter) Key() []byte { return l.cur.Key() }

// Value implements iterator.Iterator.
func (l *levelIter) Value() []byte { return l.cur.Value() }

// Err implements iterator.Iterator.
func (l *levelIter) Err() error {
	if l.err != nil {
		return l.err
	}
	if l.cur != nil {
		return l.cur.Err()
	}
	return nil
}

var _ iterator.Iterator = (*levelIter)(nil)
