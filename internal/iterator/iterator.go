// Package iterator defines the iterator contract shared by memtables,
// SSTables, and merged views, plus a k-way merging iterator used by
// reads and compactions and the concatenating one that feeds it a
// sorted level's tables.
package iterator

import (
	"sort"

	"noblsm/internal/keys"
)

// Iterator walks a sorted sequence of internal-key/value entries.
// Implementations are single-goroutine.
//
// One error rule holds at every layer: an iterator that stops on an
// error — Valid false, Err non-nil — has not reached the end of its
// sequence, so one built from children stops as soon as a child stops
// that way, and its Err reports that error. Entries after the failure
// are not the rest of the stream, and entries beside it may be stale.
// An error belongs to the walk that met it: First and Seek start a new
// walk, and Err then reports only what that walk meets.
type Iterator interface {
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// First positions at the smallest entry.
	First()
	// Seek positions at the first entry with internal key >= target.
	Seek(target []byte)
	// Next advances; requires Valid.
	Next()
	// Key returns the current internal key (valid until the next
	// positioning call).
	Key() []byte
	// Value returns the current value (same lifetime as Key).
	Value() []byte
	// Err reports an error encountered while iterating.
	Err() error
}

// BlockSkipper is an iterator whose entries lie in blocks and that can
// step past the rest of the block it is in without visiting the entries
// between: a compaction taking a whole block over as it is stored.
type BlockSkipper interface {
	// SkipBlock moves to the first entry of the next block, or past the
	// end, as Next would after the block's last entry; requires Valid.
	SkipBlock()
}

// Merging merges k child iterators into one sorted stream. Ties (equal
// internal keys cannot happen across well-formed sources, but equal
// user keys with different sequences do) resolve by internal-key
// order; among truly equal keys the lower child index wins, so callers
// should order children newest-first.
type Merging struct {
	children []Iterator
	// keys[i] is children[i]'s current key, nil once it is exhausted
	// (an internal key is never empty). Only the child that moved is
	// asked again, so picking the smallest compares k slices instead of
	// making 2k calls down each child's stack of iterators.
	keys [][]byte
	cur  int // index of current child, -1 if invalid
	// failed is set once a child stops on an error: the merge stops
	// there, since the child's remaining entries may shadow the others'.
	failed bool
}

// NewMerging returns a merging iterator over children.
func NewMerging(children ...Iterator) *Merging {
	return &Merging{children: children, keys: make([][]byte, len(children)), cur: -1}
}

// load refreshes child i's cached key after it moved.
func (m *Merging) load(i int) {
	if c := m.children[i]; c.Valid() {
		m.keys[i] = c.Key()
	} else {
		m.keys[i] = nil
		m.failed = m.failed || c.Err() != nil
	}
}

func (m *Merging) findSmallest() {
	m.cur = -1
	if m.failed {
		return
	}
	var smallest []byte
	for i, k := range m.keys {
		if k == nil {
			continue
		}
		if m.cur < 0 || keys.CompareInternal(k, smallest) < 0 {
			m.cur, smallest = i, k
		}
	}
}

// Valid implements Iterator.
func (m *Merging) Valid() bool { return m.cur >= 0 }

// First implements Iterator.
func (m *Merging) First() {
	m.failed = false
	for i, c := range m.children {
		c.First()
		m.load(i)
	}
	m.findSmallest()
}

// Seek implements Iterator.
func (m *Merging) Seek(target []byte) {
	m.failed = false
	for i, c := range m.children {
		c.Seek(target)
		m.load(i)
	}
	m.findSmallest()
}

// Next implements Iterator.
func (m *Merging) Next() {
	if m.cur < 0 {
		return
	}
	m.children[m.cur].Next()
	m.load(m.cur)
	m.findSmallest()
}

// Current returns the child at the current entry, or nil.
func (m *Merging) Current() Iterator {
	if m.cur < 0 {
		return nil
	}
	return m.children[m.cur]
}

// Rival returns the smallest current key of the children other than
// the current one — where the merge goes once the current child moves
// past it — or nil when they are all exhausted.
func (m *Merging) Rival() []byte {
	var rival []byte
	for i, k := range m.keys {
		if i != m.cur && k != nil && (rival == nil || keys.CompareInternal(k, rival) < 0) {
			rival = k
		}
	}
	return rival
}

// SkipBlock steps the current child, a BlockSkipper, past the rest of
// its block and positions at the smallest entry; requires Valid.
func (m *Merging) SkipBlock() {
	m.children[m.cur].(BlockSkipper).SkipBlock()
	m.load(m.cur)
	m.findSmallest()
}

// Key implements Iterator.
func (m *Merging) Key() []byte { return m.keys[m.cur] }

// Value implements Iterator.
func (m *Merging) Value() []byte { return m.children[m.cur].Value() }

// Err implements Iterator.
func (m *Merging) Err() error {
	for _, c := range m.children {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Concat walks children one after another: every entry of child i+1
// sorts after every entry of child i (the files of one sorted level).
// How it got its children decides when it positions them. NewConcat's
// are all held, and First and Seek position every one, in order, at
// once: a compaction's run reads the filesystem in the order it would
// as separate children of Merging, and the virtual clock cannot tell.
// NewLazyConcat's are opened and positioned only when the walk reaches
// them, and let go of once it passes them (LevelDB's concatenating
// iterator): a scan opens, and is charged for, only the tables it
// walks.
type Concat struct {
	children []Iterator // a lazy Concat holds children[cur] alone
	cur      int        // the child at the current entry; len(children) if none
	// open and largest, set for a lazy Concat, open child i and give
	// its largest user key.
	open    func(i int) (Iterator, error)
	largest func(i int) []byte
	err     error // what ended this walk: a child's error or a failed open
}

// NewConcat returns a concatenating iterator over children.
func NewConcat(children ...Iterator) *Concat {
	return &Concat{children: children, cur: len(children)}
}

// NewLazyConcat returns a concatenating iterator over n children that
// opens child i with open(i) when the walk reaches it; largest(i) is
// the largest user key child i holds.
func NewLazyConcat(n int, largest func(i int) []byte, open func(i int) (Iterator, error)) *Concat {
	return &Concat{children: make([]Iterator, n), cur: n, open: open, largest: largest}
}

// position starts a new walk, without the last one's error, at child
// i, at target (at the first entry when nil: an internal key is never
// empty).
func (c *Concat) position(i int, target []byte) {
	c.err = nil
	if c.open == nil {
		for _, ch := range c.children {
			at(ch, target)
		}
	}
	c.pass()
	c.cur = i
	c.settle(target)
}

// at positions ch at target, or at its first entry when target is nil.
func at(ch Iterator, target []byte) {
	if target == nil {
		ch.First()
	} else {
		ch.Seek(target)
	}
}

// pass lets go of the current child of a lazy Concat.
func (c *Concat) pass() {
	if c.open != nil && c.cur < len(c.children) {
		c.children[c.cur] = nil
	}
}

// settle moves past exhausted children, opening a lazy Concat's next
// one and positioning it at target or, after the first, at its first
// entry. A child that stopped on an error, or that failed to open,
// ends the stream: what follows it is not the rest of the run.
func (c *Concat) settle(target []byte) {
	for c.cur < len(c.children) {
		ch := c.children[c.cur]
		if ch == nil {
			var err error
			if ch, err = c.open(c.cur); err != nil {
				c.err, c.cur = err, len(c.children)
				return
			}
			c.children[c.cur] = ch
			at(ch, target)
			target = nil
		}
		if ch.Valid() {
			return
		}
		err := ch.Err()
		c.pass()
		if err != nil {
			c.err, c.cur = err, len(c.children)
			return
		}
		c.cur++
	}
}

// Valid implements Iterator.
func (c *Concat) Valid() bool { return c.cur < len(c.children) }

// First implements Iterator.
func (c *Concat) First() { c.position(0, nil) }

// Seek implements Iterator. A lazy Concat opens no child before the
// first whose largest key reaches target.
func (c *Concat) Seek(target []byte) {
	i := 0
	if c.open != nil {
		tu := keys.UserKey(target)
		i = sort.Search(len(c.children), func(i int) bool { return keys.CompareUser(c.largest(i), tu) >= 0 })
	}
	c.position(i, target)
}

// Next implements Iterator.
func (c *Concat) Next() {
	if c.cur < len(c.children) {
		c.children[c.cur].Next()
		c.settle(nil)
	}
}

// Current returns the child at the current entry, or nil.
func (c *Concat) Current() Iterator {
	if c.cur == len(c.children) {
		return nil
	}
	return c.children[c.cur]
}

// SkipBlock steps the current child, a BlockSkipper, past the rest of
// its block, and on to the next child when that was its last.
func (c *Concat) SkipBlock() {
	c.children[c.cur].(BlockSkipper).SkipBlock()
	c.settle(nil)
}

// Key implements Iterator.
func (c *Concat) Key() []byte { return c.children[c.cur].Key() }

// Value implements Iterator.
func (c *Concat) Value() []byte { return c.children[c.cur].Value() }

// Err implements Iterator.
func (c *Concat) Err() error {
	if c.err != nil {
		return c.err
	}
	for _, ch := range c.children {
		if ch != nil {
			if err := ch.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
