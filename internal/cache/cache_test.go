package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(100)
	k := Key{ID: 1, Off: 2}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, "v", 10)
	v, ok := c.Get(k)
	if !ok || v.(string) != "v" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if c.Used() != 10 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestReplaceAdjustsCharge(t *testing.T) {
	c := New(100)
	k := Key{ID: 1}
	c.Put(k, "a", 10)
	c.Put(k, "b", 30)
	if c.Used() != 30 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d after replace", c.Used(), c.Len())
	}
	v, _ := c.Get(k)
	if v.(string) != "b" {
		t.Fatal("replace kept old value")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(30)
	for i := 0; i < 4; i++ {
		c.Put(Key{ID: uint64(i)}, i, 10)
	}
	if c.Used() > 30 {
		t.Fatalf("over capacity: %d", c.Used())
	}
	if _, ok := c.Get(Key{ID: 0}); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get(Key{ID: 3}); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New(30)
	c.Put(Key{ID: 1}, 1, 10)
	c.Put(Key{ID: 2}, 2, 10)
	c.Put(Key{ID: 3}, 3, 10)
	c.Get(Key{ID: 1}) // refresh 1; 2 becomes LRU
	c.Put(Key{ID: 4}, 4, 10)
	if _, ok := c.Get(Key{ID: 1}); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(Key{ID: 2}); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestEvictAndEvictID(t *testing.T) {
	c := New(1000)
	for off := 0; off < 5; off++ {
		c.Put(Key{ID: 7, Off: uint64(off)}, off, 1)
	}
	c.Put(Key{ID: 8}, "other", 1)
	// Evicting is no lookup: it returns the value and counts nothing.
	if v, ok := c.Evict(Key{ID: 7, Off: 0}); !ok || v != 0 {
		t.Fatalf("Evict returned %v, %v; want 0, true", v, ok)
	}
	if _, ok := c.Evict(Key{ID: 7, Off: 0}); ok {
		t.Fatal("a second Evict found the key")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("Evict counted %d hits and %d misses", hits, misses)
	}
	if _, ok := c.Get(Key{ID: 7, Off: 0}); ok {
		t.Fatal("evicted key still present")
	}
	c.EvictID(7)
	for off := 0; off < 5; off++ {
		if _, ok := c.Get(Key{ID: 7, Off: uint64(off)}); ok {
			t.Fatalf("EvictID left offset %d", off)
		}
	}
	if _, ok := c.Get(Key{ID: 8}); !ok {
		t.Fatal("EvictID removed an unrelated entry")
	}
	c.Evict(Key{ID: 99}) // no-op must not panic
}

func TestOversizedEntryEvictsEverything(t *testing.T) {
	c := New(10)
	c.Put(Key{ID: 1}, 1, 5)
	c.Put(Key{ID: 2}, 2, 100) // larger than capacity
	if c.Len() != 0 {
		// The oversized entry cannot fit; the cache must not retain
		// more than capacity... it evicts until empty.
		t.Fatalf("len=%d used=%d after oversized insert", c.Len(), c.Used())
	}
}

func TestStats(t *testing.T) {
	c := New(100)
	c.Put(Key{ID: 1}, 1, 1)
	c.Get(Key{ID: 1})
	c.Get(Key{ID: 2})
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestDefaultShardCount(t *testing.T) {
	// Tiny caches (the scaled simulation configs) must stay single
	// shard so global LRU order is exact; production-sized caches
	// split up to the LevelDB-style maximum.
	cases := []struct {
		capacity int64
		want     int
	}{
		{30, 1},
		{1000, 1},
		{256 << 10, 1},
		{1 << 20, 4},
		{8 << 20, 16},
		{64 << 20, 16},
	}
	for _, tc := range cases {
		if got := New(tc.capacity).Shards(); got != tc.want {
			t.Errorf("New(%d).Shards() = %d, want %d", tc.capacity, got, tc.want)
		}
	}
}

func TestShardedAggregation(t *testing.T) {
	c := NewSharded(1<<20, 8)
	if c.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", c.Shards())
	}
	const n = 500
	for i := 0; i < n; i++ {
		c.Put(Key{ID: uint64(i), Off: uint64(i * 4096)}, i, 100)
	}
	if c.Len() != n {
		t.Fatalf("Len() = %d, want %d", c.Len(), n)
	}
	if c.Used() != int64(n*100) {
		t.Fatalf("Used() = %d, want %d", c.Used(), n*100)
	}
	for i := 0; i < n; i++ {
		v, ok := c.Get(Key{ID: uint64(i), Off: uint64(i * 4096)})
		if !ok || v.(int) != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	hits, misses := c.Stats()
	if hits != n || misses != 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestShardedEvictIDSweepsAllShards(t *testing.T) {
	c := NewSharded(1<<20, 8)
	// Offsets hash one ID's blocks onto many shards; EvictID must
	// find them all.
	for off := 0; off < 64; off++ {
		c.Put(Key{ID: 7, Off: uint64(off * 4096)}, off, 100)
	}
	c.Put(Key{ID: 8}, "other", 100)
	c.EvictID(7)
	for off := 0; off < 64; off++ {
		if _, ok := c.Get(Key{ID: 7, Off: uint64(off * 4096)}); ok {
			t.Fatalf("EvictID left offset %d", off)
		}
	}
	if _, ok := c.Get(Key{ID: 8}); !ok {
		t.Fatal("EvictID removed an unrelated entry")
	}
}

func TestShardedConcurrent(t *testing.T) {
	c := NewSharded(1<<20, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{ID: uint64(i % 128), Off: uint64(g)}
				switch i % 3 {
				case 0:
					c.Put(k, i, 64)
				case 1:
					c.Get(k)
				default:
					c.Evict(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Used() < 0 {
		t.Fatalf("negative Used() = %d", c.Used())
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1 << 20)
	for i := 0; i < 1000; i++ {
		c.Put(Key{ID: uint64(i)}, i, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(Key{ID: uint64(i % 1000)})
	}
}

func ExampleCache() {
	c := New(1 << 20)
	c.Put(Key{ID: 5, Off: 4096}, []byte("block contents"), 14)
	if v, ok := c.Get(Key{ID: 5, Off: 4096}); ok {
		fmt.Println(string(v.([]byte)))
	}
	// Output:
	// block contents
}
