package block

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Round-trip with random keys, verify Seek on every possible target.
func TestScanSeekExhaustive(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rnd.Intn(40) + 1
		ri := []int{1, 2, 3, 16}[rnd.Intn(4)]
		keyset := map[string]string{}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%0*d", rnd.Intn(6)+1, rnd.Intn(500))
			keyset[k] = fmt.Sprintf("v%d", i)
		}
		var ks []string
		for k := range keyset {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		b := NewBuilder(ri)
		for _, k := range ks {
			b.Add([]byte(k), []byte(keyset[k]))
		}
		img := b.Finish()
		r, err := NewReader(append([]byte(nil), img...), bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		// Full forward scan
		it := r.NewIter()
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != ks[i] || string(it.Value()) != keyset[ks[i]] {
				t.Fatalf("trial %d ri %d scan idx %d: got %q=%q want %q=%q", trial, ri, i, it.Key(), it.Value(), ks[i], keyset[ks[i]])
			}
			i++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		if i != len(ks) {
			t.Fatalf("trial %d: scan saw %d of %d", trial, i, len(ks))
		}
		// Seek every target incl. between-keys and beyond
		for probe := 0; probe < 60; probe++ {
			target := fmt.Sprintf("%0*d", rnd.Intn(6)+1, rnd.Intn(520))
			want := sort.SearchStrings(ks, target)
			it.Seek([]byte(target))
			if want == len(ks) {
				if it.Valid() {
					t.Fatalf("trial %d: seek %q: want invalid, got %q", trial, target, it.Key())
				}
				continue
			}
			if !it.Valid() || string(it.Key()) != ks[want] {
				t.Fatalf("trial %d ri %d: seek %q: want %q got valid=%v key=%q", trial, ri, target, ks[want], it.Valid(), it.Key())
			}
			// Next after Seek
			it.Next()
			if want+1 == len(ks) {
				if it.Valid() {
					t.Fatalf("trial %d: next after seek %q: want invalid got %q", trial, target, it.Key())
				}
			} else if !it.Valid() || string(it.Key()) != ks[want+1] {
				t.Fatalf("trial %d: next after seek %q: want %q got %q", trial, target, ks[want+1], it.Key())
			}
		}
	}
}

// hugeUnsharedBlock is a 20-byte image whose only entry declares an
// unshared key length of 2^63-1: added to the entry's offset as an int
// it wraps negative, so a bounds check made after the conversion passes
// and the slice expression panics.
var hugeUnsharedBlock = []byte{
	0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00, 'a', // shared 0, unshared 2^63-1, vlen 0, "a"
	0, 0, 0, 0, // restart[0] = 0
	1, 0, 0, 0, // one restart
}

func TestDecodeHugeLengthFailsCleanly(t *testing.T) {
	r, err := NewReader(hugeUnsharedBlock, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	for name, position := range map[string]func(*Iter){
		"First": func(it *Iter) { it.First() },
		"Seek":  func(it *Iter) { it.Seek([]byte("a")) },
	} {
		it := r.NewIter()
		position(it)
		if it.Valid() || !errors.Is(it.Err(), ErrBadBlock) {
			t.Fatalf("%s: valid=%v err=%v, want invalid with ErrBadBlock", name, it.Valid(), it.Err())
		}
	}
}
