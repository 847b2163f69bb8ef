package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func buildBlock(t *testing.T, interval int, kvs [][2]string) *Reader {
	t.Helper()
	b := NewBuilder(interval)
	for _, kv := range kvs {
		b.Add([]byte(kv[0]), []byte(kv[1]))
	}
	r, err := NewReader(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIterateAll(t *testing.T) {
	kvs := [][2]string{{"a", "1"}, {"ab", "2"}, {"abc", "3"}, {"b", "4"}, {"ba", "5"}}
	r := buildBlock(t, 2, kvs)
	it := r.NewIter()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Key()) != kvs[i][0] || string(it.Value()) != kvs[i][1] {
			t.Fatalf("entry %d: %q=%q, want %q=%q", i, it.Key(), it.Value(), kvs[i][0], kvs[i][1])
		}
		i++
	}
	if i != len(kvs) {
		t.Fatalf("iterated %d entries, want %d", i, len(kvs))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestSeek(t *testing.T) {
	kvs := [][2]string{{"b", "1"}, {"d", "2"}, {"f", "3"}, {"h", "4"}}
	r := buildBlock(t, 1, kvs) // every entry a restart point
	cases := []struct {
		target string
		want   string // "" means invalid
	}{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"d", "d"},
		{"e", "f"}, {"h", "h"}, {"i", ""},
	}
	it := r.NewIter()
	for _, c := range cases {
		it.Seek([]byte(c.target))
		if c.want == "" {
			if it.Valid() {
				t.Fatalf("Seek(%q) valid at %q, want invalid", c.target, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != c.want {
			t.Fatalf("Seek(%q) = %q, want %q", c.target, it.Key(), c.want)
		}
	}
}

func TestSeekWithSharedPrefixes(t *testing.T) {
	var kvs [][2]string
	for i := 0; i < 100; i++ {
		kvs = append(kvs, [2]string{fmt.Sprintf("user-key-%04d", i), fmt.Sprintf("v%d", i)})
	}
	r := buildBlock(t, 16, kvs)
	it := r.NewIter()
	for i := 0; i < 100; i++ {
		target := fmt.Sprintf("user-key-%04d", i)
		it.Seek([]byte(target))
		if !it.Valid() || string(it.Key()) != target {
			t.Fatalf("Seek(%q) failed", target)
		}
	}
}

func TestRandomizedAgainstSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	keySet := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("%08x", rnd.Uint32())
		keySet[k] = fmt.Sprintf("value-%d", i)
	}
	var sorted []string
	for k := range keySet {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var kvs [][2]string
	for _, k := range sorted {
		kvs = append(kvs, [2]string{k, keySet[k]})
	}
	for _, interval := range []int{1, 4, 16, 64} {
		r := buildBlock(t, interval, kvs)
		it := r.NewIter()
		// Full scan equals reference.
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != sorted[i] {
				t.Fatalf("interval %d: scan order broke at %d", interval, i)
			}
			i++
		}
		// Seeks to random probes land on lower bound.
		for j := 0; j < 200; j++ {
			probe := fmt.Sprintf("%08x", rnd.Uint32())
			it.Seek([]byte(probe))
			idx := sort.SearchStrings(sorted, probe)
			if idx == len(sorted) {
				if it.Valid() {
					t.Fatalf("seek past end valid at %q", it.Key())
				}
			} else if !it.Valid() || string(it.Key()) != sorted[idx] {
				t.Fatalf("seek(%q) = %q, want %q", probe, it.Key(), sorted[idx])
			}
		}
	}
}

func TestEmptyBlock(t *testing.T) {
	b := NewBuilder(16)
	r, err := NewReader(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIter()
	it.First()
	if it.Valid() {
		t.Fatal("empty block iterates")
	}
	it.Seek([]byte("x"))
	if it.Valid() {
		t.Fatal("empty block seek valid")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(4)
	b.Add([]byte("a"), []byte("1"))
	b.Finish()
	b.Reset()
	if !b.Empty() || b.Entries() != 0 {
		t.Fatal("reset builder not empty")
	}
	b.Add([]byte("z"), []byte("26"))
	r, err := NewReader(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIter()
	it.First()
	if !it.Valid() || string(it.Key()) != "z" {
		t.Fatal("reused builder produced a bad block")
	}
}

func TestEstimatedSizeGrows(t *testing.T) {
	b := NewBuilder(16)
	prev := b.EstimatedSize()
	for i := 0; i < 50; i++ {
		b.Add([]byte(fmt.Sprintf("key%04d", i)), bytes.Repeat([]byte("v"), 20))
		if sz := b.EstimatedSize(); sz <= prev {
			t.Fatalf("estimated size did not grow at entry %d", i)
		} else {
			prev = sz
		}
	}
}

func TestMalformedBlocksRejected(t *testing.T) {
	if _, err := NewReader([]byte{1, 2}, bytes.Compare); err == nil {
		t.Fatal("2-byte block accepted")
	}
	// Restart count pointing beyond the data.
	bad := []byte{0, 0, 0, 0, 255, 0, 0, 0}
	if _, err := NewReader(bad, bytes.Compare); err == nil {
		t.Fatal("bogus restart count accepted")
	}
}

func TestPrefixCompressionSavesSpace(t *testing.T) {
	long := NewBuilder(16)
	flat := NewBuilder(1)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("a-very-long-common-prefix-%06d", i))
		long.Add(k, []byte("v"))
		flat.Add(k, []byte("v"))
	}
	if len(long.Finish()) >= len(flat.Finish()) {
		t.Fatal("prefix compression saved nothing")
	}
}

func BenchmarkBlockSeek(b *testing.B) {
	bb := NewBuilder(16)
	var ks [][]byte
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		ks = append(ks, k)
		bb.Add(k, []byte("value"))
	}
	r, err := NewReader(bb.Finish(), bytes.Compare)
	if err != nil {
		b.Fatal(err)
	}
	it := r.NewIter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Seek(ks[i%len(ks)])
	}
}

// TestCutByMatchesBuilder cuts a random stream into blocks the way a
// table builder does and holds CutBy to that cutter: true for every
// block cut by size, false for the short tail, and false under any
// other restart interval or a size at which the cutter would have cut
// elsewhere.
func TestCutByMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const interval, size = 4, 512
	b := NewBuilder(interval)
	var full, short int
	check := func(data []byte, cut bool) {
		br, err := NewReader(data, bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		if got := br.CutBy(interval, size); got != cut {
			t.Fatalf("CutBy(%d, %d) = %v for a %d-byte block, want %v", interval, size, got, len(data), cut)
		}
		if !cut {
			short++
			return
		}
		full++
		it := br.NewIter()
		n := 0
		for it.First(); it.Valid(); it.Next() {
			n++
		}
		if n > interval && br.CutBy(interval+1, size) {
			t.Fatalf("a block of %d entries passes under restart interval %d", n, interval+1)
		}
		if br.CutBy(interval, len(data)+1) {
			t.Fatal("a block passes under a size it does not reach")
		}
		if n > 1 && br.CutBy(interval, 24) {
			t.Fatal("a block passes under a size an earlier entry reached")
		}
	}
	for i := 0; i < 4000; i++ {
		v := make([]byte, r.Intn(120))
		b.Add([]byte(fmt.Sprintf("key%06d", i)), v)
		if b.EstimatedSize() >= size {
			check(append([]byte(nil), b.Finish()...), true)
			b.Reset()
		}
	}
	check(b.Finish(), false)
	if full < 100 || short != 1 {
		t.Fatalf("%d full blocks and %d short ones", full, short)
	}
}
