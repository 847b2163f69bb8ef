package keys

import (
	"bytes"
	"math/rand"
	"testing"
)

func randKey(rnd *rand.Rand) []byte {
	n := rnd.Intn(6) + 1
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rnd.Intn(4)) + 'a' - 1 // small alphabet incl 'a'-1 to force shared prefixes
	}
	return b
}

func TestSeparatorInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200000; trial++ {
		au := randKey(rnd)
		bu := randKey(rnd)
		if bytes.Compare(au, bu) > 0 {
			au, bu = bu, au
		}
		sa := SeqNum(rnd.Intn(100))
		sb := SeqNum(rnd.Intn(100))
		a := MakeInternalKey(nil, au, sa, KindValue)
		b := MakeInternalKey(nil, bu, sb, KindValue)
		if CompareInternal(a, b) >= 0 {
			continue // need a < b
		}
		sep := SeparatorInternal(a, b)
		if CompareInternal(a, sep) > 0 {
			t.Fatalf("sep < a: a=%s b=%s sep=%s", String(a), String(b), String(sep))
		}
		if CompareInternal(sep, b) >= 0 {
			t.Fatalf("sep >= b: a=%s b=%s sep=%s", String(a), String(b), String(sep))
		}
		suc := SuccessorInternal(a)
		if CompareInternal(suc, a) < 0 {
			t.Fatalf("successor < a: a=%s suc=%s", String(a), String(suc))
		}
	}
}

func TestShortestSeparatorUserInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200000; trial++ {
		a := randKey(rnd)
		b := randKey(rnd)
		if bytes.Compare(a, b) >= 0 {
			continue
		}
		s := shortestSeparator(a, b)
		if bytes.Compare(a, s) > 0 || bytes.Compare(s, b) >= 0 {
			t.Fatalf("a=%q b=%q sep=%q violates a<=sep<b", a, b, s)
		}
	}
}
