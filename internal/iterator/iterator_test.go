package iterator

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"noblsm/internal/keys"
)

// sliceIter iterates a pre-sorted list of internal-key/value pairs.
type sliceIter struct {
	ikeys  [][]byte
	values [][]byte
	i      int
	err    error
}

func newSliceIter(pairs map[string]string, seq keys.SeqNum) *sliceIter {
	var ks []string
	for k := range pairs {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	it := &sliceIter{}
	for _, k := range ks {
		it.ikeys = append(it.ikeys, keys.MakeInternalKey(nil, []byte(k), seq, keys.KindValue))
		it.values = append(it.values, []byte(pairs[k]))
	}
	it.i = -1
	return it
}

func (s *sliceIter) Valid() bool { return s.i >= 0 && s.i < len(s.ikeys) }
func (s *sliceIter) First()      { s.i = 0 }
func (s *sliceIter) Next()       { s.i++ }
func (s *sliceIter) Key() []byte { return s.ikeys[s.i] }

func (s *sliceIter) Value() []byte { return s.values[s.i] }
func (s *sliceIter) Err() error    { return s.err }

func (s *sliceIter) Seek(target []byte) {
	s.i = sort.Search(len(s.ikeys), func(i int) bool {
		return keys.CompareInternal(s.ikeys[i], target) >= 0
	})
}

func TestMergingInterleavesSorted(t *testing.T) {
	a := newSliceIter(map[string]string{"a": "1", "c": "3", "e": "5"}, 10)
	b := newSliceIter(map[string]string{"b": "2", "d": "4"}, 10)
	m := NewMerging(a, b)
	var got []string
	for m.First(); m.Valid(); m.Next() {
		got = append(got, string(keys.UserKey(m.Key()))+"="+string(m.Value()))
	}
	want := []string{"a=1", "b=2", "c=3", "d=4", "e=5"}
	if len(got) != len(want) {
		t.Fatalf("merged %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v", got)
		}
	}
}

func TestMergingNewestVersionFirst(t *testing.T) {
	newer := newSliceIter(map[string]string{"k": "new"}, 20)
	older := newSliceIter(map[string]string{"k": "old"}, 10)
	// Child order must not matter: internal-key order puts the higher
	// sequence first.
	for _, m := range []*Merging{NewMerging(older, newer), NewMerging(newer, older)} {
		m.First()
		if !m.Valid() || string(m.Value()) != "new" {
			t.Fatalf("first version = %q", m.Value())
		}
		m.Next()
		if !m.Valid() || string(m.Value()) != "old" {
			t.Fatalf("second version = %q", m.Value())
		}
	}
}

func TestMergingSeek(t *testing.T) {
	a := newSliceIter(map[string]string{"b": "1", "f": "2"}, 10)
	b := newSliceIter(map[string]string{"d": "3"}, 10)
	m := NewMerging(a, b)
	m.Seek(keys.MakeInternalKey(nil, []byte("c"), keys.MaxSeqNum, keys.KindSeek))
	if !m.Valid() || string(keys.UserKey(m.Key())) != "d" {
		t.Fatalf("seek landed on %s", keys.String(m.Key()))
	}
	m.Seek(keys.MakeInternalKey(nil, []byte("z"), keys.MaxSeqNum, keys.KindSeek))
	if m.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestMergingEmptyChildren(t *testing.T) {
	m := NewMerging(newSliceIter(nil, 1), newSliceIter(nil, 1))
	m.First()
	if m.Valid() {
		t.Fatal("empty merge valid")
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	m.Next() // must not panic
}

func TestMergingPropagatesErrors(t *testing.T) {
	bad := &sliceIter{err: errors.New("disk on fire")}
	m := NewMerging(newSliceIter(map[string]string{"a": "1"}, 1), bad)
	m.First()
	if m.Valid() || m.Err() == nil {
		t.Fatal("child error swallowed")
	}
}

func TestMergingStopsOnChildError(t *testing.T) {
	// The newer child stops on an error after "a": whatever it did not
	// read may shadow the older child's "a" and "b", so neither shows.
	newer := newSliceIter(map[string]string{"a": "new"}, 2)
	newer.err = errors.New("disk on fire")
	older := newSliceIter(map[string]string{"a": "old", "b": "old"}, 1)
	m := NewMerging(older, newer)
	m.First()
	if !m.Valid() || string(m.Value()) != "new" {
		t.Fatalf("first entry = %q", m.Value())
	}
	m.Next()
	if m.Valid() {
		t.Fatalf("merge went on past a failed child to %s=%q", keys.String(m.Key()), m.Value())
	}
	if m.Err() == nil {
		t.Fatal("child error swallowed")
	}
}

func TestMergingMatchesSortedUnionProperty(t *testing.T) {
	// Property: merging k disjoint sorted sources yields the sorted
	// union, regardless of how keys are partitioned.
	f := func(keysRaw []uint16, split uint8) bool {
		parts := make([]map[string]string, int(split%4)+1)
		for i := range parts {
			parts[i] = map[string]string{}
		}
		all := map[string]bool{}
		for i, kr := range keysRaw {
			k := string(rune('a'+kr%26)) + string(rune('a'+(kr>>5)%26))
			parts[i%len(parts)][k] = "v"
			all[k] = true
		}
		// Deduplicate across parts (keep in lowest part only).
		seen := map[string]bool{}
		for _, p := range parts {
			for k := range p {
				if seen[k] {
					delete(p, k)
				}
				seen[k] = true
			}
		}
		var children []Iterator
		for _, p := range parts {
			children = append(children, newSliceIter(p, 5))
		}
		m := NewMerging(children...)
		var got []string
		for m.First(); m.Valid(); m.Next() {
			got = append(got, string(keys.UserKey(m.Key())))
		}
		var want []string
		for k := range all {
			want = append(want, k)
		}
		sort.Strings(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatWalksChildrenInOrder(t *testing.T) {
	newConcat := func() *Concat {
		return NewConcat(
			newSliceIter(map[string]string{"a": "1", "b": "2"}, 7),
			newSliceIter(nil, 7), // an empty table in the middle of a run
			newSliceIter(map[string]string{"c": "3"}, 7),
			newSliceIter(map[string]string{"d": "4", "e": "5"}, 7),
		)
	}
	walk := func(c *Concat) string {
		var got string
		for ; c.Valid(); c.Next() {
			got += string(keys.UserKey(c.Key())) + string(c.Value())
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		c.Next() // must not panic
		return got
	}
	c := newConcat()
	if c.Valid() {
		t.Fatal("valid before positioning")
	}
	c.First()
	if got := walk(c); got != "a1b2c3d4e5" {
		t.Fatalf("First: walked %q", got)
	}
	for target, want := range map[string]string{"a": "a1b2c3d4e5", "bb": "c3d4e5", "d": "d4e5", "f": ""} {
		c := newConcat()
		c.Seek(keys.MakeInternalKey(nil, []byte(target), keys.MaxSeqNum, keys.KindSeek))
		if got := walk(c); got != want {
			t.Fatalf("Seek(%s): walked %q, want %q", target, got, want)
		}
	}
}

func TestConcatStopsAtAFailedChild(t *testing.T) {
	// A child that stopped on an error is not exhausted: the stream
	// must end there, with the error, not carry on into the next child
	// as though nothing were missing.
	c := NewConcat(
		newSliceIter(map[string]string{"a": "1"}, 7),
		&sliceIter{err: errors.New("disk on fire")},
		newSliceIter(map[string]string{"c": "3"}, 7),
	)
	n := 0
	for c.First(); c.Valid(); c.Next() {
		n++
	}
	if n != 1 || c.Err() == nil {
		t.Fatalf("walked %d entries, err %v; want 1 and the child's error", n, c.Err())
	}
}

// errOpen is the failure lazyRun's opener injects.
var errOpen = errors.New("table will not open")

// lazyRun is a lazy Concat over children, each holding the one-letter
// user keys of its string (an empty child's largest key is its
// predecessor's). It records in *opened the index of every child it
// opens, and child *fail fails to open.
func lazyRun(children []string, fail *int, opened *[]int) *Concat {
	largest := func(i int) []byte {
		all := strings.Join(children[:i+1], "")
		return []byte(all[len(all)-1:])
	}
	return NewLazyConcat(len(children), largest, func(i int) (Iterator, error) {
		*opened = append(*opened, i)
		if i == *fail {
			return nil, errOpen
		}
		m := map[string]string{}
		for _, k := range children[i] {
			m[string(k)] = ""
		}
		return newSliceIter(m, 7), nil
	})
}

// walkKeys returns the user keys from c's position to its end.
func walkKeys(c *Concat) string {
	var got string
	for ; c.Valid(); c.Next() {
		got += string(keys.UserKey(c.Key()))
	}
	return got
}

func TestLazyConcatStopsAtChildThatFailsToOpen(t *testing.T) {
	fail, opened := 2, []int(nil)
	c := lazyRun([]string{"ab", "c", "d", "ef"}, &fail, &opened)
	c.First()
	if got := walkKeys(c); got != "abc" || !errors.Is(c.Err(), errOpen) {
		t.Fatalf("walked %q, err %v; want abc and the open's error", got, c.Err())
	}
	if fmt.Sprint(opened) != "[0 1 2]" {
		t.Fatalf("opened children %v; want none after the one that failed", opened)
	}
	// The next walk, with every child opening, reaches the end: the
	// error belonged to the walk that met it.
	fail = -1
	c.First()
	if got := walkKeys(c); got != "abcdef" || c.Err() != nil {
		t.Fatalf("second walk: %q, err %v; want abcdef and no error", got, c.Err())
	}
}

func TestLazyConcatSeekOpensFromTargetsChild(t *testing.T) {
	for target, want := range map[string]string{
		"a":  "[0 1 2 3] abcdef",
		"bb": "[1 2 3] cdef",
		"d":  "[2 3] def",
		"f":  "[3] f",
		"g":  "[] ",
	} {
		fail, opened := -1, []int{}
		c := lazyRun([]string{"ab", "c", "d", "ef"}, &fail, &opened)
		c.Seek(keys.MakeInternalKey(nil, []byte(target), keys.MaxSeqNum, keys.KindSeek))
		got := walkKeys(c)
		if s := fmt.Sprint(opened) + " " + got; s != want || c.Err() != nil {
			t.Fatalf("Seek(%s): opened and walked %q, err %v; want %q", target, s, c.Err(), want)
		}
	}
}

func TestLazyConcatLetsGoOfPassedChildren(t *testing.T) {
	fail, opened := -1, []int(nil)
	c := lazyRun([]string{"ab", "c", "d", "ef"}, &fail, &opened)
	held := func() (n int) {
		for _, ch := range c.children {
			if ch != nil {
				n++
			}
		}
		return n
	}
	for c.First(); c.Valid(); c.Next() {
		if n := held(); n != 1 || c.Current() == nil {
			t.Fatalf("at %s: %d children held; want the current one alone", keys.UserKey(c.Key()), n)
		}
	}
	if n := held(); n != 0 {
		t.Fatalf("%d children held after the walk; want none", n)
	}
	fail = 3
	c.First()
	for ; c.Valid(); c.Next() {
	}
	if n := held(); n != 0 || c.Err() == nil {
		t.Fatalf("%d children held after a failed open (err %v); want none", n, c.Err())
	}
}

func TestLazyConcatStepsOverEmptyChild(t *testing.T) {
	fail, opened := -1, []int(nil)
	c := lazyRun([]string{"ab", "", "", "c"}, &fail, &opened)
	c.First()
	if got := walkKeys(c); got != "abc" || c.Err() != nil || fmt.Sprint(opened) != "[0 1 2 3]" {
		t.Fatalf("walked %q, err %v, opened %v; want abc from all four children", got, c.Err(), opened)
	}
}

// BenchmarkMergeFanIn is the merge's layer benchmark: one upper-level
// run over ten disjoint lower-level runs — an Ln→Ln+1 compaction — as
// eleven children of Merging, and as two with the ten concatenated.
// ns/op is per merged entry.
func BenchmarkMergeFanIn(b *testing.B) {
	const perRun = 1000
	run := func(first, step int, seq keys.SeqNum) *sliceIter {
		it := &sliceIter{i: -1}
		for i := 0; i < perRun; i++ {
			ukey := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
			for j, v := 15, first+i*step; j >= 0; j, v = j-1, v/10 {
				ukey[j] = byte('0' + v%10)
			}
			it.ikeys = append(it.ikeys, keys.MakeInternalKey(nil, ukey, seq, keys.KindValue))
			it.values = append(it.values, ukey)
		}
		return it
	}
	inputs := func() (upper Iterator, lower []Iterator) {
		for r := 0; r < 10; r++ {
			lower = append(lower, run(r*2*perRun, 2, 1))
		}
		return run(1, 20, 2), lower
	}
	for _, grouped := range []bool{false, true} {
		upper, lower := inputs()
		children := append([]Iterator{upper}, lower...)
		if grouped {
			children = []Iterator{upper, NewConcat(lower...)}
		}
		b.Run(map[bool]string{false: "children=11", true: "children=2"}[grouped], func(b *testing.B) {
			m := NewMerging(children...)
			n := 0
			for i := 0; i < b.N; i++ {
				if !m.Valid() {
					if i > 0 && n != 11*perRun {
						b.Fatalf("merged %d entries, want %d", n, 11*perRun)
					}
					m.First()
					n = 0
				}
				m.Next()
				n++
			}
		})
	}
}

// blockedIter is a sliceIter whose entries lie in blocks of two.
type blockedIter struct{ *sliceIter }

func (b blockedIter) SkipBlock() { b.i += 2 - b.i%2 }

// TestMergingSkipBlock steps children past whole blocks through a
// Merging over a Concat and a leaf: SkipBlock lands where Next would
// after the block's last entry, a Concat moves on to its next child
// when the block was the last of one, and Rival is the smallest key of
// the children that did not move.
func TestMergingSkipBlock(t *testing.T) {
	run := NewConcat(
		blockedIter{newSliceIter(map[string]string{"a": "", "b": "", "c": ""}, 1)},
		blockedIter{newSliceIter(map[string]string{"m": "", "n": ""}, 1)},
	)
	leaf := blockedIter{newSliceIter(map[string]string{"d": "", "e": "", "f": "", "g": ""}, 1)}
	m := NewMerging(run, leaf)
	var got []string
	step := func(skip bool) {
		if !m.Valid() {
			t.Fatalf("merge ended after %v", got)
		}
		rival := "-"
		if r := m.Rival(); r != nil {
			rival = string(keys.UserKey(r))
		}
		got = append(got, string(keys.UserKey(m.Key()))+"<"+rival)
		if skip {
			m.SkipBlock()
		} else {
			m.Next()
		}
	}
	m.First()
	if m.Current() != run {
		t.Fatal("the merge's current child is not the run holding its first key")
	}
	step(true)  // a: skips b, to c in the run's first child
	step(false) // c: the run's first child ends
	step(true)  // d: skips e
	step(false) // f
	step(true)  // g: the leaf's last block
	step(true)  // m: skips n, the run's last block
	if m.Valid() || m.Current() != nil || run.Current() != nil {
		t.Fatalf("merge goes on after %v", got)
	}
	want := "[a<d c<d d<m f<m g<m m<-]"
	if s := "[" + strings.Join(got, " ") + "]"; s != want {
		t.Fatalf("merged %s, want %s", s, want)
	}
}
