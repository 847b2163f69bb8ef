package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"noblsm/internal/keys"
)

func TestAddGet(t *testing.T) {
	m := New(1)
	m.Add(1, keys.KindValue, []byte("apple"), []byte("red"))
	m.Add(2, keys.KindValue, []byte("banana"), []byte("yellow"))

	v, deleted, found := m.Get([]byte("apple"), keys.MaxSeqNum)
	if !found || deleted || string(v) != "red" {
		t.Fatalf("Get(apple) = %q,%v,%v", v, deleted, found)
	}
	if _, _, found := m.Get([]byte("cherry"), keys.MaxSeqNum); found {
		t.Fatal("found a missing key")
	}
}

func TestGetRespectsSnapshotSeq(t *testing.T) {
	m := New(1)
	m.Add(10, keys.KindValue, []byte("k"), []byte("v10"))
	m.Add(20, keys.KindValue, []byte("k"), []byte("v20"))

	if v, _, _ := m.Get([]byte("k"), keys.MaxSeqNum); string(v) != "v20" {
		t.Fatalf("latest read %q", v)
	}
	if v, _, _ := m.Get([]byte("k"), 15); string(v) != "v10" {
		t.Fatalf("snapshot@15 read %q", v)
	}
	if _, _, found := m.Get([]byte("k"), 5); found {
		t.Fatal("snapshot@5 saw a later write")
	}
}

func TestTombstoneShadowsValue(t *testing.T) {
	m := New(1)
	m.Add(1, keys.KindValue, []byte("k"), []byte("v"))
	m.Add(2, keys.KindDelete, []byte("k"), nil)
	v, deleted, found := m.Get([]byte("k"), keys.MaxSeqNum)
	if !found || !deleted || v != nil {
		t.Fatalf("tombstone read: %q,%v,%v", v, deleted, found)
	}
	// The old version is still visible below the tombstone.
	if v, deleted, _ := m.Get([]byte("k"), 1); deleted || string(v) != "v" {
		t.Fatal("old version hidden by future tombstone")
	}
}

func TestIteratorOrdered(t *testing.T) {
	m := New(7)
	rnd := rand.New(rand.NewSource(7))
	want := map[string]string{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%06d", rnd.Intn(500))
		v := fmt.Sprintf("val%d", i)
		m.Add(keys.SeqNum(i+1), keys.KindValue, []byte(k), []byte(v))
		want[k] = v
	}
	it := m.NewIterator()
	var prev []byte
	seen := map[string]string{}
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && keys.CompareInternal(prev, it.Key()) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], it.Key()...)
		uk := string(keys.UserKey(it.Key()))
		if _, ok := seen[uk]; !ok {
			seen[uk] = string(it.Value()) // first hit = newest version
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("iterated %d user keys, want %d", len(seen), len(want))
	}
	for k, v := range want {
		if seen[k] != v {
			t.Fatalf("key %s: newest = %q, want %q", k, seen[k], v)
		}
	}
}

func TestIteratorSeek(t *testing.T) {
	m := New(1)
	for _, k := range []string{"b", "d", "f"} {
		m.Add(1, keys.KindValue, []byte(k), []byte("v"))
	}
	it := m.NewIterator()
	it.Seek(keys.MakeInternalKey(nil, []byte("c"), keys.MaxSeqNum, keys.KindSeek))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "d" {
		t.Fatalf("seek(c) landed on %q", it.Key())
	}
	it.Seek(keys.MakeInternalKey(nil, []byte("z"), keys.MaxSeqNum, keys.KindSeek))
	if it.Valid() {
		t.Fatal("seek past end is valid")
	}
}

func TestUsageAndLen(t *testing.T) {
	m := New(1)
	if !m.Empty() || m.Len() != 0 || m.ApproximateMemoryUsage() != 0 {
		t.Fatal("fresh memtable not empty")
	}
	m.Add(1, keys.KindValue, []byte("k"), []byte("0123456789"))
	if m.Empty() || m.Len() != 1 {
		t.Fatal("memtable empty after add")
	}
	if m.ApproximateMemoryUsage() < 10 {
		t.Fatalf("usage %d too small", m.ApproximateMemoryUsage())
	}
}

func TestOrderMatchesSortReference(t *testing.T) {
	// Property-style reference check: iterating the skiplist yields
	// exactly sort.Slice order of the inserted internal keys.
	m := New(3)
	rnd := rand.New(rand.NewSource(3))
	var ikeys [][]byte
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("%04d", rnd.Intn(300)))
		seq := keys.SeqNum(i + 1)
		kind := keys.KindValue
		if rnd.Intn(10) == 0 {
			kind = keys.KindDelete
		}
		m.Add(seq, kind, k, []byte("v"))
		ikeys = append(ikeys, keys.MakeInternalKey(nil, k, seq, kind))
	}
	sort.Slice(ikeys, func(i, j int) bool { return keys.CompareInternal(ikeys[i], ikeys[j]) < 0 })
	it := m.NewIterator()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), ikeys[i]) {
			t.Fatalf("position %d: got %s want %s", i, keys.String(it.Key()), keys.String(ikeys[i]))
		}
		i++
	}
	if i != len(ikeys) {
		t.Fatalf("iterated %d entries, want %d", i, len(ikeys))
	}
}

func BenchmarkAdd(b *testing.B) {
	m := New(1)
	key := make([]byte, 16)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binaryPut(key, uint64(i))
		m.Add(keys.SeqNum(i+1), keys.KindValue, key, val)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New(1)
	key := make([]byte, 16)
	for i := 0; i < 100000; i++ {
		binaryPut(key, uint64(i))
		m.Add(keys.SeqNum(i+1), keys.KindValue, key, []byte("v"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binaryPut(key, uint64(i%100000))
		m.Get(key, keys.MaxSeqNum)
	}
}

// TestGetAllocations pins Get at no allocation: the seek key it builds
// lives on the stack.
func TestGetAllocations(t *testing.T) {
	m := New(1)
	key := make([]byte, 16)
	for i := 0; i < 1000; i++ {
		binaryPut(key, uint64(i))
		m.Add(keys.SeqNum(i+1), keys.KindValue, key, []byte("v"))
	}
	binaryPut(key, 417)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, found := m.Get(key, keys.MaxSeqNum); !found {
			t.Fatal("Get missed a present key")
		}
	}); allocs != 0 {
		t.Fatalf("Get makes %v allocations, want 0", allocs)
	}
}

func binaryPut(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// TestGetSeqBoundUnderConcurrentAdd regression-tests the bottom-level
// re-advance in Get and Iterator.Seek: the descent's final
// next-pointer load can observe a node a concurrent Add spliced in
// after the traversal passed — always a newer write, whose larger
// sequence sorts before the seek key — and without the re-check a
// read pinned at sequence S could return an entry above S. The
// writer publishes each sequence only after Add returns, so every
// pinned probe has a fully linked prefix to read against; any value
// above the pin is the race.
func TestGetSeqBoundUnderConcurrentAdd(t *testing.T) {
	const (
		numKeys = 4
		ops     = 20000
		readers = 4
	)
	m := New(1)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i%numKeys)) }
	var published atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= ops; i++ {
			m.Add(keys.SeqNum(i), keys.KindValue, key(i), []byte(fmt.Sprintf("%d", i)))
			published.Store(uint64(i))
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				pin := keys.SeqNum(published.Load())
				if pin == 0 {
					continue
				}
				k := key(rng.Intn(numKeys))
				if v, _, found := m.Get(k, pin); found {
					got, err := strconv.Atoi(string(v))
					if err != nil || keys.SeqNum(got) > pin {
						errs <- fmt.Errorf("Get(%q, %d) returned entry at seq %s", k, pin, v)
						return
					}
				}
				it := m.NewIterator()
				seek := keys.MakeInternalKey(nil, k, pin, keys.KindSeek)
				it.Seek(seek)
				if it.Valid() && keys.CompareInternal(it.Key(), seek) < 0 {
					errs <- fmt.Errorf("Seek(%q, %d) positioned before the seek key", k, pin)
					return
				}
			}
		}(r)
	}
	<-done
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
