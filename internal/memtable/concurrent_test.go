package memtable

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"noblsm/internal/keys"
)

// TestConcurrentReadersDuringInserts exercises the single-writer /
// many-reader contract under the race detector: readers must see
// every entry that was published before their lookup, and iterators
// must always observe a strictly ordered, prefix-consistent view,
// even while the writer is mid-insert.
func TestConcurrentReadersDuringInserts(t *testing.T) {
	const n = 20_000
	m := New(11)
	var published atomic.Int64 // highest i whose Add has returned
	published.Store(-1)        // before any reader starts: nothing is published yet

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Point readers: any key published before the read must be found
	// with its exact value (keys are unique, one version each).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := published.Load()
				if hi < 0 {
					continue
				}
				i := rnd.Int63n(hi + 1)
				uk := []byte(fmt.Sprintf("key%08d", i))
				v, deleted, found := m.Get(uk, keys.MaxSeqNum)
				if !found || deleted || string(v) != fmt.Sprintf("val%d", i) {
					t.Errorf("reader %d: key %d published but Get = %q,%v,%v", r, i, v, deleted, found)
					return
				}
			}
		}(r)
	}

	// Iterator readers: full scans must be strictly ordered and
	// contain at least every entry published before the scan began.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var prev []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := published.Load() + 1
				it := m.NewIterator()
				count := int64(0)
				prev = prev[:0]
				for it.First(); it.Valid(); it.Next() {
					if len(prev) > 0 && keys.CompareInternal(prev, it.Key()) >= 0 {
						t.Errorf("scanner %d: out-of-order keys during concurrent insert", r)
						return
					}
					prev = append(prev[:0], it.Key()...)
					count++
				}
				if count < before {
					t.Errorf("scanner %d: scan saw %d entries, %d were published before it started", r, count, before)
					return
				}
			}
		}(r)
	}

	for i := int64(0); i < n; i++ {
		m.Add(keys.SeqNum(i+1), keys.KindValue,
			[]byte(fmt.Sprintf("key%08d", i)), []byte(fmt.Sprintf("val%d", i)))
		published.Store(i)
	}
	close(stop)
	wg.Wait()

	if m.Len() != n {
		t.Fatalf("Len() = %d, want %d", m.Len(), n)
	}
}

// TestArenaAllocation checks the bump allocator carves non-aliasing
// slices and rolls over to fresh blocks for oversized entries.
func TestArenaAllocation(t *testing.T) {
	var a arena
	x := a.alloc(10)
	y := a.alloc(10)
	copy(x, "xxxxxxxxxx")
	copy(y, "yyyyyyyyyy")
	if string(x) != "xxxxxxxxxx" {
		t.Fatal("allocations alias")
	}
	if cap(x) != 10 {
		t.Fatalf("alloc cap = %d, want clamped to 10", cap(x))
	}
	big := a.alloc(arenaBlockSize * 2)
	if len(big) != arenaBlockSize*2 {
		t.Fatalf("oversized alloc len = %d", len(big))
	}
	if a.blocks != 2 {
		t.Fatalf("blocks = %d, want 2", a.blocks)
	}
}
