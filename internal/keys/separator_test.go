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
		sep := AppendSeparatorInternal(nil, a, b)
		if CompareInternal(a, sep) > 0 {
			t.Fatalf("sep < a: a=%s b=%s sep=%s", String(a), String(b), String(sep))
		}
		if CompareInternal(sep, b) >= 0 {
			t.Fatalf("sep >= b: a=%s b=%s sep=%s", String(a), String(b), String(sep))
		}
		suc := AppendSuccessorInternal(nil, a)
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

// TestAppendSeparatorMatchesReference pins the index separators the
// table builder writes: AppendSeparatorInternal and
// AppendSuccessorInternal must emit exactly the bytes of the
// allocate-per-call forms below (the builder's before it reused a
// buffer), appended after whatever dst already holds. A changed
// separator changes every table's index block and so the benchmark's
// exact numbers.
func TestAppendSeparatorMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	edge := [][]byte{{0xff}, {0xff, 0xff}, {'a', 0xff}, {0xfe, 0x00}, {0x00}, {'a', 'b', 'c'}}
	dst := []byte("prefix")
	for trial := 0; trial < 200000; trial++ {
		var au, bu []byte
		if trial < len(edge)*len(edge) {
			au, bu = edge[trial/len(edge)], edge[trial%len(edge)]
		} else {
			au, bu = randKey(rnd), randKey(rnd)
			if rnd.Intn(8) == 0 {
				au = append(au, 0xff, 0xff)
			}
		}
		if bytes.Compare(au, bu) > 0 {
			au, bu = bu, au
		}
		a := MakeInternalKey(nil, au, SeqNum(rnd.Intn(100)), KindValue)
		b := MakeInternalKey(nil, bu, SeqNum(rnd.Intn(100)), KindValue)
		if CompareInternal(a, b) >= 0 {
			continue
		}
		got := AppendSeparatorInternal(dst[:6], a, b)
		if want := separatorRef(a, b); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("separator of %s, %s: %x, want %x", String(a), String(b), got[6:], want)
		}
		dst = got
		got = AppendSuccessorInternal(dst[:6], a)
		if want := successorRef(a); !bytes.Equal(got[6:], want) {
			t.Fatalf("successor of %s: %x, want %x", String(a), got[6:], want)
		}
		if got := AppendSeparatorInternal(nil, a, nil); !bytes.Equal(got, successorRef(a)) {
			t.Fatalf("separator of %s and the table's end: %x, want the successor", String(a), got)
		}
	}
}

// separatorRef and successorRef are the reference forms: a short user
// key from shortestSeparator or shortSuccessor, used with the maximal
// trailer when it is strictly shorter than a's and sorts after it.
func separatorRef(a, b []byte) []byte {
	au, bu := UserKey(a), UserKey(b)
	sep := shortestSeparator(au, bu)
	if len(sep) < len(au) && bytes.Compare(au, sep) < 0 {
		return MakeInternalKey(nil, sep, MaxSeqNum, KindSeek)
	}
	return append([]byte(nil), a...)
}

func successorRef(a []byte) []byte {
	au := UserKey(a)
	suc := shortSuccessor(au)
	if len(suc) < len(au) {
		return MakeInternalKey(nil, suc, MaxSeqNum, KindSeek)
	}
	return append([]byte(nil), a...)
}

// shortestSeparator returns the shortest user key k with a <= k < b,
// or a copy of a if none shorter exists.
func shortestSeparator(a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	if i < n && a[i] < b[i] && a[i]+1 < b[i] {
		sep := append([]byte(nil), a[:i+1]...)
		sep[i]++
		return sep
	}
	return append([]byte(nil), a...)
}

// shortSuccessor returns a short user key >= a: the first byte that
// can be incremented is, and the rest dropped.
func shortSuccessor(a []byte) []byte {
	for i, c := range a {
		if c != 0xff {
			suc := append([]byte(nil), a[:i+1]...)
			suc[i]++
			return suc
		}
	}
	return append([]byte(nil), a...)
}
