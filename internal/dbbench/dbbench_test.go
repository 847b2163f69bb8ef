package dbbench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestKeyFormat(t *testing.T) {
	if got := string(Key(0)); got != "0000000000000000" {
		t.Fatalf("Key(0) = %q", got)
	}
	if got := string(Key(123456)); got != "0000000000123456" {
		t.Fatalf("Key(123456) = %q", got)
	}
	if len(Key(0)) != 16 {
		t.Fatal("db_bench keys must be 16 bytes")
	}
}

func TestSequentialGenerators(t *testing.T) {
	for _, w := range []string{FillSeq, ReadSeq} {
		g := NewGenerator(w, 5, 1)
		for i := int64(0); i < 5; i++ {
			k, done := g.Next()
			if done || k != i {
				t.Fatalf("%s step %d: k=%d done=%v", w, i, k, done)
			}
		}
		if _, done := g.Next(); !done {
			t.Fatalf("%s did not finish", w)
		}
	}
}

func TestRandomGeneratorBoundsAndCount(t *testing.T) {
	g := NewGenerator(FillRandom, 1000, 1)
	n := 0
	for {
		k, done := g.Next()
		if done {
			break
		}
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("issued %d ops, want 1000", n)
	}
}

func TestRandomGeneratorHasDuplicates(t *testing.T) {
	// db_bench's rand%num draws with replacement: a 1000-op run over
	// 1000 records statistically must repeat some keys.
	g := NewGenerator(FillRandom, 1000, 1)
	seen := map[int64]bool{}
	dups := 0
	for {
		k, done := g.Next()
		if done {
			break
		}
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	if dups == 0 {
		t.Fatal("no duplicate keys — not rand%num semantics")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Overwrite, 500, 9)
	g2 := NewGenerator(Overwrite, 500, 9)
	for {
		k1, d1 := g1.Next()
		k2, d2 := g2.Next()
		if k1 != k2 || d1 != d2 {
			t.Fatal("same seed diverged")
		}
		if d1 {
			break
		}
	}
}

func TestValueProperties(t *testing.T) {
	f := func(key int64, round uint8, sizeRaw uint16) bool {
		size := int(sizeRaw%4096) + 1
		v1 := Value(nil, key, int(round), size)
		v2 := Value(nil, key, int(round), size)
		if len(v1) != size || !bytes.Equal(v1, v2) {
			return false
		}
		// A different round yields a different value (same length).
		v3 := Value(nil, key, int(round)+1, size)
		return len(v3) == size && (size < 8 || !bytes.Equal(v1, v3))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 2048)
	v := Value(buf, 1, 0, 1024)
	if &v[0] != &buf[:1][0] {
		t.Fatal("Value did not reuse the provided buffer")
	}
}

func TestWorkloadsListed(t *testing.T) {
	if len(Workloads) != 4 {
		t.Fatalf("Workloads = %v", Workloads)
	}
}

func BenchmarkValue1KB(b *testing.B) {
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = Value(buf, int64(i), 0, 1024)
	}
}

// TestValueGolden pins the generators' bytes: every figure's byte
// stream, and with it every exact benchmark metric, depends on them.
// The sizes sit below, on and across Value's 8-byte store boundary.
func TestValueGolden(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for k := int64(0); k < 5000; k++ {
		for _, size := range []int{1, 7, 8, 9, 100, 1023, 1024, 1025} {
			buf = Value(buf, k*7919, int(k%5), size)
			h.Write(buf)
			buf = CompressibleValue(buf, k, int(k%3), size)
			h.Write(buf)
		}
	}
	const want = "068ee88f1f90bc44ae26d244ce75a60a5e05efc7ba5888bf35b999e25eb5e269"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("generator bytes changed: sha256 %s, want %s", got, want)
	}
}
