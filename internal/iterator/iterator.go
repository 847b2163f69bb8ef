// Package iterator defines the iterator contract shared by memtables,
// SSTables, and merged views, plus a k-way merging iterator used by
// reads and compactions and the concatenating one a compaction feeds
// it with.
package iterator

import "noblsm/internal/keys"

// Iterator walks a sorted sequence of internal-key/value entries.
// Implementations are single-goroutine.
//
// One error rule holds at every layer: an iterator that stops on an
// error — Valid false, Err non-nil — has not reached the end of its
// sequence, so one built from children stops as soon as a child stops
// that way, and its Err reports that error. Entries after the failure
// are not the rest of the stream, and entries beside it may be stale.
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

// Empty is an iterator over nothing.
type Empty struct{ E error }

func (Empty) Valid() bool   { return false }
func (Empty) First()        {}
func (Empty) Seek([]byte)   {}
func (Empty) Next()         {}
func (Empty) Key() []byte   { return nil }
func (Empty) Value() []byte { return nil }
func (e Empty) Err() error  { return e.E }

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
// A compaction hands each such run to Merging as one child, so picking
// the smallest key compares per level, not per table. Positioning is
// eager — First and Seek position every child, in order, at once — so
// the reads a compaction issues reach the filesystem in the order they
// would without the grouping, and the virtual clock cannot tell.
type Concat struct {
	children []Iterator
	cur      int // the child at the current entry; len(children) if none
}

// NewConcat returns a concatenating iterator over children.
func NewConcat(children ...Iterator) *Concat {
	return &Concat{children: children, cur: len(children)}
}

// settle moves past exhausted children. A child that stopped on an
// error ends the stream: what follows it is not the rest of the run.
func (c *Concat) settle() {
	for c.cur < len(c.children) && !c.children[c.cur].Valid() {
		if c.children[c.cur].Err() != nil {
			c.cur = len(c.children)
			return
		}
		c.cur++
	}
}

// Valid implements Iterator.
func (c *Concat) Valid() bool { return c.cur < len(c.children) }

// First implements Iterator.
func (c *Concat) First() {
	for _, ch := range c.children {
		ch.First()
	}
	c.cur = 0
	c.settle()
}

// Seek implements Iterator.
func (c *Concat) Seek(target []byte) {
	for _, ch := range c.children {
		ch.Seek(target)
	}
	c.cur = 0
	c.settle()
}

// Next implements Iterator.
func (c *Concat) Next() {
	if c.cur < len(c.children) {
		c.children[c.cur].Next()
		c.settle()
	}
}

// Key implements Iterator.
func (c *Concat) Key() []byte { return c.children[c.cur].Key() }

// Value implements Iterator.
func (c *Concat) Value() []byte { return c.children[c.cur].Value() }

// Err implements Iterator.
func (c *Concat) Err() error {
	for _, ch := range c.children {
		if err := ch.Err(); err != nil {
			return err
		}
	}
	return nil
}
