// Package memtable provides the in-memory mutable table of the
// LSM-tree: an arena-backed skiplist ordered by internal key.
// Arriving writes are inserted with their sequence numbers; a full
// memtable is frozen (made immutable) and dumped to an L0 SSTable by
// a minor compaction.
//
// Concurrency model (LevelDB's): ONE writer at a time (the engine's
// group-commit leader serializes inserts) and ANY number of lock-free
// readers. Inserts link nodes bottom-up through atomic pointer
// stores; a node's key/value bytes are fully written into the arena
// before the pointer that publishes it, so a reader that observes the
// pointer (atomic load) also observes the bytes. Readers therefore
// run Get and iteration with no mutex at all.
package memtable

import (
	"math/rand"
	"sync/atomic"

	"noblsm/internal/keys"
)

const maxHeight = 12

// arenaBlockSize is the granularity of key/value byte allocation.
// Entries larger than a block get a dedicated block.
const arenaBlockSize = 64 << 10

// arena is a bump allocator for entry bytes. Only the single writer
// allocates; readers never touch it directly (they see arena bytes
// only through published node pointers).
type arena struct {
	cur    []byte // remaining tail of the current block
	blocks int    // blocks allocated (for introspection/tests)
}

// alloc returns a fresh n-byte slice carved from the arena.
func (a *arena) alloc(n int) []byte {
	if n > len(a.cur) {
		size := arenaBlockSize
		if n > size {
			size = n
		}
		a.cur = make([]byte, size)
		a.blocks++
	}
	b := a.cur[:n:n]
	a.cur = a.cur[n:]
	return b
}

// MemTable is a skiplist keyed by internal key: single-writer,
// multi-reader. The engine's write path serializes Add calls (the
// group-commit leader is the only inserter); Get and iterators are
// safe to call concurrently with an in-progress Add and with each
// other, without locks.
type MemTable struct {
	head *node
	rnd  *rand.Rand
	// height, usage and count are atomics so lock-free readers and
	// the unlocked write-buffer accounting see consistent values.
	height atomic.Int32
	// usage approximates memory consumption for the write-buffer
	// accounting that triggers minor compactions. The formula
	// (len(ikey)+len(value)+16*height per entry) is unchanged from
	// the pre-arena implementation so rotation points — and thus
	// every deterministic experiment shape — stay identical.
	usage atomic.Int64
	count atomic.Int64
	ar    arena
}

type node struct {
	ikey  []byte
	value []byte
	next  []atomic.Pointer[node]
}

// loadNext atomically reads the successor at level.
func (n *node) loadNext(level int) *node { return n.next[level].Load() }

// New returns an empty memtable. The seed makes skiplist shapes
// deterministic for reproducible experiments.
func New(seed int64) *MemTable {
	m := &MemTable{
		head: &node{next: make([]atomic.Pointer[node], maxHeight)},
		rnd:  rand.New(rand.NewSource(seed)),
	}
	m.height.Store(1)
	return m
}

func (m *MemTable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rnd.Intn(4) == 0 {
		h++
	}
	return h
}

// Add inserts an entry. kind distinguishes values from tombstones.
// The ikey/value bytes are copied into the memtable's arena. Add is
// NOT safe for concurrent use with itself — the engine's write path
// guarantees a single inserter — but is safe to run concurrently
// with Get and iterators.
func (m *MemTable) Add(seq keys.SeqNum, kind keys.Kind, ukey, value []byte) {
	ikey := keys.MakeInternalKey(m.ar.alloc(len(ukey) + keys.TrailerLen)[:0], ukey, seq, kind)
	var v []byte
	if len(value) > 0 {
		v = m.ar.alloc(len(value))
		copy(v, value)
	}

	var prev [maxHeight]*node
	x := m.head
	height := int(m.height.Load())
	for level := height - 1; level >= 0; level-- {
		for nx := x.loadNext(level); nx != nil && keys.CompareInternal(nx.ikey, ikey) < 0; nx = x.loadNext(level) {
			x = nx
		}
		prev[level] = x
	}
	h := m.randomHeight()
	if h > height {
		for level := height; level < h; level++ {
			prev[level] = m.head
		}
		// Published before linking: a reader that loads the new
		// height early just walks head links that may still be nil
		// at the top, which the search loops tolerate.
		m.height.Store(int32(h))
	}
	n := &node{ikey: ikey, value: v, next: make([]atomic.Pointer[node], h)}
	for level := 0; level < h; level++ {
		// Bottom-up linking: by the time a reader can reach n via an
		// upper level, its lower links are already in place. The
		// store into prev's next is the release that publishes n's
		// bytes to the atomic-loading readers.
		n.next[level].Store(prev[level].loadNext(level))
		prev[level].next[level].Store(n)
	}
	m.usage.Add(int64(len(ikey) + len(v) + 16*h))
	m.count.Add(1)
}

// Get looks up ukey at or below seq. It returns (value, true, true)
// for a live value, (nil, true, true-deleted) semantics as:
// found=false if no entry for ukey is visible; deleted=true if the
// newest visible entry is a tombstone. Safe for concurrent use.
func (m *MemTable) Get(ukey []byte, seq keys.SeqNum) (value []byte, deleted, found bool) {
	// The seek key lives on the stack unless the user key is too long
	// for the array.
	var buf [64]byte
	seek := keys.MakeInternalKey(buf[:0], ukey, seq, keys.KindSeek)
	x := m.head
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		for nx := x.loadNext(level); nx != nil && keys.CompareInternal(nx.ikey, seek) < 0; nx = x.loadNext(level) {
			x = nx
		}
	}
	// Re-advance at the bottom level: the final load can observe a
	// node spliced in after the descent passed x — always a newer
	// write, whose larger sequence sorts BEFORE seek — so without
	// this re-check a pinned read could return an entry above its
	// snapshot sequence.
	n := x.loadNext(0)
	for n != nil && keys.CompareInternal(n.ikey, seek) < 0 {
		n = n.loadNext(0)
	}
	if n == nil {
		return nil, false, false
	}
	nuk, _, kind, ok := keys.ParseInternalKey(n.ikey)
	if !ok || keys.CompareUser(nuk, ukey) != 0 {
		return nil, false, false
	}
	if kind == keys.KindDelete {
		return nil, true, true
	}
	return n.value, false, true
}

// ApproximateMemoryUsage reports the accumulated entry footprint
// (arena bytes handed out plus per-entry skiplist overhead).
func (m *MemTable) ApproximateMemoryUsage() int64 { return m.usage.Load() }

// Len reports the number of entries (including tombstones and
// superseded versions).
func (m *MemTable) Len() int { return int(m.count.Load()) }

// Empty reports whether no entries have been added.
func (m *MemTable) Empty() bool { return m.count.Load() == 0 }

// Iterator walks the memtable in internal-key order. Iterators are
// lock-free: one created while writes are still arriving observes
// every entry published before each positioning call, which is
// sufficient because the engine pins reads to a visible sequence
// number.
type Iterator struct {
	m *MemTable
	n *node
}

// NewIterator returns an iterator positioned before the first entry;
// call First or Seek before use.
func (m *MemTable) NewIterator() *Iterator { return &Iterator{m: m} }

// First positions at the smallest entry.
func (it *Iterator) First() { it.n = it.m.head.loadNext(0) }

// Seek positions at the first entry with internal key >= ikey.
func (it *Iterator) Seek(ikey []byte) {
	x := it.m.head
	for level := int(it.m.height.Load()) - 1; level >= 0; level-- {
		for nx := x.loadNext(level); nx != nil && keys.CompareInternal(nx.ikey, ikey) < 0; nx = x.loadNext(level) {
			x = nx
		}
	}
	// Same bottom-level re-advance as Get: the final load can catch a
	// concurrently spliced newer-seq node that sorts before ikey.
	n := x.loadNext(0)
	for n != nil && keys.CompareInternal(n.ikey, ikey) < 0 {
		n = n.loadNext(0)
	}
	it.n = n
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Next advances to the following entry.
func (it *Iterator) Next() { it.n = it.n.loadNext(0) }

// Key returns the current internal key. The slice is owned by the
// memtable and valid until the memtable is released.
func (it *Iterator) Key() []byte { return it.n.ikey }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.n.value }
