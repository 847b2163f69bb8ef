package bloom

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func key(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		f := New(10)
		var ks [][]byte
		for i := 0; i < n; i++ {
			ks = append(ks, key(i))
		}
		filter := f.Build(nil, ks)
		for i := 0; i < n; i++ {
			if !f.MayContain(filter, key(i)) {
				t.Fatalf("n=%d: false negative for key %d", n, i)
			}
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10)
	var ks [][]byte
	for i := 0; i < 10000; i++ {
		ks = append(ks, key(i))
	}
	filter := f.Build(nil, ks)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain(filter, key(1_000_000+i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// 10 bits/key targets ~1%; allow generous headroom.
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
}

func TestEmptyAndTinyFilters(t *testing.T) {
	f := New(10)
	filter := f.Build(nil, nil)
	if f.MayContain(filter, []byte("x")) {
		t.Fatal("empty filter matched")
	}
	if f.MayContain(nil, []byte("x")) {
		t.Fatal("nil filter matched")
	}
	one := f.Build(nil, [][]byte{[]byte("only")})
	if !f.MayContain(one, []byte("only")) {
		t.Fatal("single-key filter missed its key")
	}
}

func TestVaryingBitsPerKey(t *testing.T) {
	var ks [][]byte
	for i := 0; i < 5000; i++ {
		ks = append(ks, key(i))
	}
	prevRate := 1.0
	for _, bits := range []int{2, 6, 10, 16} {
		f := New(bits)
		filter := f.Build(nil, ks)
		fp := 0
		for i := 0; i < 5000; i++ {
			if f.MayContain(filter, key(1_000_000+i)) {
				fp++
			}
		}
		rate := float64(fp) / 5000
		if rate > prevRate+0.02 {
			t.Fatalf("%d bits/key: fp rate %.4f did not improve on %.4f", bits, rate, prevRate)
		}
		prevRate = rate
	}
}

func TestClampAndDefaults(t *testing.T) {
	if f := New(0); f.k < 1 {
		t.Fatal("k below 1")
	}
	if f := New(1000); f.k > 30 {
		t.Fatal("k above 30")
	}
	if New(10).Name() == "" {
		t.Fatal("empty policy name")
	}
}

func TestReservedKEncodingsMatch(t *testing.T) {
	// A filter whose k byte exceeds 30 must conservatively match.
	filter := make([]byte, 9)
	filter[8] = 31
	if !New(10).MayContain(filter, []byte("anything")) {
		t.Fatal("reserved encoding rejected a key")
	}
}

func TestBuildAppendsToDst(t *testing.T) {
	f := New(10)
	prefix := []byte("prefix")
	out := f.Build(prefix, [][]byte{[]byte("k")})
	if string(out[:6]) != "prefix" {
		t.Fatal("Build did not append to dst")
	}
	if !f.MayContain(out[6:], []byte("k")) {
		t.Fatal("appended filter broken")
	}
}

func TestBuildReusedDstMatchesFresh(t *testing.T) {
	// A flush or compaction builds many tables through one
	// scratch buffer: each Build reuses the previous table's dst via
	// [:0], so the capacity it appends into is full of the previous
	// filter's set bits. The output must be identical to a fresh
	// build — Build must zero (not inherit) every byte it reuses.
	f := New(10)
	tableKeys := make([][][]byte, 4)
	for ti := range tableKeys {
		for i := 0; i < 500; i++ {
			tableKeys[ti] = append(tableKeys[ti], key(ti*10_000+i))
		}
	}
	var reused []byte
	for ti, ks := range tableKeys {
		reused = f.Build(reused[:0], ks)
		fresh := f.Build(nil, ks)
		if string(reused) != string(fresh) {
			t.Fatalf("table %d: reused-dst filter differs from fresh build", ti)
		}
		// The table builder keeps hashes, not keys: same filter.
		hashes := make([]uint32, len(ks))
		for i, k := range ks {
			hashes[i] = Hash(k)
		}
		reused = f.BuildHashes(reused[:0], hashes)
		if string(reused) != string(fresh) {
			t.Fatalf("table %d: BuildHashes differs from Build", ti)
		}
	}
}

func BenchmarkBuild10k(b *testing.B) {
	f := New(10)
	var ks [][]byte
	for i := 0; i < 10000; i++ {
		ks = append(ks, key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Build(nil, ks)
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := New(10)
	var ks [][]byte
	for i := 0; i < 10000; i++ {
		ks = append(ks, key(i))
	}
	filter := f.Build(nil, ks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(filter, key(i))
	}
}

func ExampleFilter() {
	f := New(10)
	filter := f.Build(nil, [][]byte{[]byte("apple"), []byte("banana")})
	fmt.Println(f.MayContain(filter, []byte("apple")))
	fmt.Println(f.MayContain(filter, []byte("durian")))
	// Output:
	// true
	// false
}
