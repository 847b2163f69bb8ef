// Package cache provides a charge-aware sharded LRU cache used for
// SSTable blocks and open-table handles, mirroring LevelDB's
// ShardedLRUCache: keys are spread across independent shards by a
// mixing hash, each shard owns a private mutex and LRU list, so
// concurrent readers on different shards never contend. Capacity is
// split evenly across shards; small caches (the scaled simulation
// configs) collapse to a single shard, which preserves exact global
// LRU order and keeps the deterministic virtual-time experiments
// byte-for-byte identical.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"noblsm/internal/obs"
)

// Key identifies an entry: a cache-holder id (e.g. file number) plus
// an offset or sub-id.
type Key struct {
	ID  uint64
	Off uint64
}

// hash mixes both Key words (splitmix64-style finalizer) so that
// sequential file numbers and block offsets spread evenly over
// shards.
func (k Key) hash() uint64 {
	x := k.ID*0x9e3779b97f4a7c15 + k.Off
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type entry struct {
	key    Key
	value  any
	charge int64
}

// counterPair groups the hit/miss/fill counters so Instrument can
// swap them atomically with respect to in-flight lookups on other
// shards.
type counterPair struct {
	hits, misses, fills *obs.Counter
}

// shard is one independently locked LRU.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	table    map[Key]*list.Element
}

// Cache is a thread-safe sharded LRU with byte-charge accounting.
// Hit/miss accounting lives in obs counters (shared across shards —
// they are atomic) so the cache can publish into a shared metrics
// registry (Instrument); standalone caches count into private
// counters.
type Cache struct {
	shards []*shard
	mask   uint64
	ctr    atomic.Pointer[counterPair]
}

// minShardCapacity is the smallest per-shard budget worth splitting
// for: below this, sharding just fragments the capacity (and breaks
// global LRU order for the tiny scaled-run caches), so New falls back
// to fewer shards.
const minShardCapacity = 256 << 10 // 256 KB

// maxShards bounds the automatic shard count (LevelDB uses 16).
const maxShards = 16

// defaultShards picks a power-of-two shard count sized to capacity:
// 1 for small caches, up to maxShards once every shard would still
// hold at least minShardCapacity.
func defaultShards(capacity int64) int {
	n := 1
	for n < maxShards && capacity/int64(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

// New returns a cache bounded to capacity charge units (bytes), with
// a shard count derived from the capacity.
func New(capacity int64) *Cache {
	return NewSharded(capacity, defaultShards(capacity))
}

// NewSharded returns a cache bounded to capacity charge units split
// evenly across numShards independently locked shards. numShards is
// rounded up to a power of two; values < 1 mean 1.
func NewSharded(capacity int64, numShards int) *Cache {
	n := 1
	for n < numShards {
		n *= 2
	}
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
	}
	per := capacity / int64(n)
	rem := capacity % int64(n)
	for i := range c.shards {
		cap := per
		if int64(i) < rem {
			cap++
		}
		c.shards[i] = &shard{
			capacity: cap,
			ll:       list.New(),
			table:    make(map[Key]*list.Element),
		}
	}
	c.ctr.Store(&counterPair{hits: &obs.Counter{}, misses: &obs.Counter{}, fills: &obs.Counter{}})
	return c
}

// Shards reports the number of shards.
func (c *Cache) Shards() int { return len(c.shards) }

func (c *Cache) shardFor(key Key) *shard {
	return c.shards[key.hash()&c.mask]
}

// Instrument redirects hit/miss/fill accounting to the given registry
// counters (carrying over any counts already accumulated). Call it
// during setup, before the cache is shared across goroutines:
// lookups in flight during the swap may still land on the old
// counters.
func (c *Cache) Instrument(hits, misses, fills *obs.Counter) {
	old := c.ctr.Load()
	hits.Add(old.hits.Value())
	misses.Add(old.misses.Value())
	fills.Add(old.fills.Value())
	c.ctr.Store(&counterPair{hits: hits, misses: misses, fills: fills})
}

// Get returns the cached value for key, if present.
func (c *Cache) Get(key Key) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.table[key]; ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry).value
		s.mu.Unlock()
		c.ctr.Load().hits.Inc()
		return v, true
	}
	s.mu.Unlock()
	c.ctr.Load().misses.Inc()
	return nil, false
}

// Put inserts value with the given charge, evicting LRU entries from
// the key's shard as needed. An existing entry for key is replaced.
func (c *Cache) Put(key Key, value any, charge int64) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.table[key]; ok {
		e := el.Value.(*entry)
		s.used += charge - e.charge
		e.value, e.charge = value, charge
		s.ll.MoveToFront(el)
	} else {
		el := s.ll.PushFront(&entry{key: key, value: value, charge: charge})
		s.table[key] = el
		s.used += charge
	}
	for s.used > s.capacity && s.ll.Len() > 0 {
		s.evictOldest()
	}
	s.mu.Unlock()
	c.ctr.Load().fills.Inc()
}

// Evict removes key if present and returns the value it held. It is
// no lookup: it counts neither a hit nor a miss.
func (c *Cache) Evict(key Key) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.table[key]
	if !ok {
		return nil, false
	}
	s.removeElement(el)
	return el.Value.(*entry).value, true
}

// EvictID removes every entry whose Key.ID matches id (used when a
// table file is deleted). Entries for one ID may live on any shard
// (the hash mixes Off), so every shard is swept.
func (c *Cache) EvictID(id uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*entry).key.ID == id {
				s.removeElement(el)
			}
			el = next
		}
		s.mu.Unlock()
	}
}

func (s *shard) evictOldest() {
	if el := s.ll.Back(); el != nil {
		s.removeElement(el)
	}
}

func (s *shard) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.table, e.key)
	s.used -= e.charge
}

// Used reports the current charge total, aggregated across shards.
func (c *Cache) Used() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}

// Len reports the number of cached entries, aggregated across shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats reports cumulative hits and misses — a view over the
// counters, aggregated across all shards (the counters are shared).
func (c *Cache) Stats() (hits, misses int64) {
	p := c.ctr.Load()
	return p.hits.Value(), p.misses.Value()
}

// Fills reports cumulative Put calls — how often the cache was
// populated (inserts plus replacements), the denominator that turns a
// hit ratio into a churn picture.
func (c *Cache) Fills() int64 {
	return c.ctr.Load().fills.Value()
}
