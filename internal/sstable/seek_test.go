package sstable

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// copyOnly refuses its file's page-cache views and peeks, so every read
// copies through ReadAt: each block a scan loads takes the pooled copy.
type copyOnly struct{ vfs.File }

func (copyOnly) ReadView(*vclock.Timeline, int, int64) ([]byte, bool, error) { return nil, false, nil }
func (copyOnly) Peek(int64) ([]byte, error)                                  { return nil, errors.ErrUnsupported }

// memFile is a file in memory that takes its refusals from copyOnly. The
// file copyOnly holds stays nil: memFile's own methods stand above it.
type memFile struct {
	copyOnly
	b []byte
}

func (m *memFile) Append(tl *vclock.Timeline, p []byte) error { m.b = append(m.b, p...); return nil }
func (m *memFile) Sync(tl *vclock.Timeline) error             { return nil }
func (m *memFile) Close(tl *vclock.Timeline) error            { return nil }
func (m *memFile) Size() int64                                { return int64(len(m.b)) }
func (m *memFile) Ino() int64                                 { return 1 }
func (m *memFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	return copy(p, m.b[off:]), nil
}

type entry struct {
	ik []byte
	v  string
}

func TestTableSeekExhaustive(t *testing.T) {
	tl := vclock.NewTimeline(0)
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		// Multiple versions per user key, so user keys span block boundaries.
		var es []entry
		seq := keys.SeqNum(1)
		nk := rnd.Intn(200) + 1
		for i := 0; i < nk; i++ {
			uk := []byte(fmt.Sprintf("key%05d", i*3))
			nv := rnd.Intn(5) + 1
			for j := 0; j < nv; j++ {
				kind := keys.KindValue
				if rnd.Intn(4) == 0 {
					kind = keys.KindDelete
				}
				es = append(es, entry{keys.MakeInternalKey(nil, uk, seq, kind), fmt.Sprintf("v%d.%d", i, j)})
				seq++
			}
		}
		sort.Slice(es, func(a, b int) bool { return keys.CompareInternal(es[a].ik, es[b].ik) < 0 })
		f := &memFile{}
		opts := Options{BlockSize: 128, RestartInterval: 4, BloomBitsPerKey: 10}
		b := NewBuilder(f, opts)
		for _, e := range es {
			if err := b.Add(tl, e.ik, []byte(e.v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Finish(tl); err != nil {
			t.Fatal(err)
		}
		r, err := Open(tl, f, opts, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Full scan
		it := r.NewIterator(tl)
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if keys.CompareInternal(it.Key(), es[i].ik) != 0 || string(it.Value()) != es[i].v {
				t.Fatalf("trial %d scan idx %d: got %s=%q want %s=%q", trial, i, keys.String(it.Key()), it.Value(), keys.String(es[i].ik), es[i].v)
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(es) {
			t.Fatalf("trial %d: scan saw %d of %d", trial, i, len(es))
		}
		// Seek exhaustively: every user key (incl. absent) at random snapshot seqs
		for probe := 0; probe < 300; probe++ {
			uk := []byte(fmt.Sprintf("key%05d", rnd.Intn(nk*3+4)))
			s := keys.SeqNum(rnd.Intn(int(seq) + 2))
			target := keys.MakeInternalKey(nil, uk, s, keys.KindSeek)
			want := sort.Search(len(es), func(j int) bool { return keys.CompareInternal(es[j].ik, target) >= 0 })
			it.Seek(target)
			if err := it.Err(); err != nil {
				t.Fatalf("trial %d: seek err %v", trial, err)
			}
			if want == len(es) {
				if it.Valid() {
					t.Fatalf("trial %d: seek %s: want invalid got %s", trial, keys.String(target), keys.String(it.Key()))
				}
				continue
			}
			if !it.Valid() || keys.CompareInternal(it.Key(), es[want].ik) != 0 {
				got := "invalid"
				if it.Valid() {
					got = keys.String(it.Key())
				}
				t.Fatalf("trial %d: seek %s: want %s got %s", trial, keys.String(target), keys.String(es[want].ik), got)
			}
			if string(it.Value()) != es[want].v {
				t.Fatalf("trial %d: seek %s: wrong value", trial, keys.String(target))
			}
			// continue scanning a few
			for step := 1; step <= 3; step++ {
				it.Next()
				if want+step == len(es) {
					if it.Valid() {
						t.Fatalf("trial %d: next past end valid", trial)
					}
					break
				}
				if !it.Valid() || keys.CompareInternal(it.Key(), es[want+step].ik) != 0 {
					t.Fatalf("trial %d: next step %d after seek %s wrong", trial, step, keys.String(target))
				}
			}
		}
		// Bloom: no false negatives
		for i := 0; i < nk; i++ {
			if !r.MayContain([]byte(fmt.Sprintf("key%05d", i*3))) {
				t.Fatalf("trial %d: bloom false negative", trial)
			}
		}
		// Get
		for probe := 0; probe < 100; probe++ {
			uk := []byte(fmt.Sprintf("key%05d", rnd.Intn(nk*3+4)))
			target := keys.MakeInternalKey(nil, uk, keys.MaxSeqNum, keys.KindSeek)
			want := sort.Search(len(es), func(j int) bool { return keys.CompareInternal(es[j].ik, target) >= 0 })
			ik, v, found, err := r.Get(tl, target)
			if err != nil {
				t.Fatal(err)
			}
			if (want < len(es)) != found {
				t.Fatalf("trial %d: get %q found=%v want %v", trial, uk, found, want < len(es))
			}
			if found && (keys.CompareInternal(ik, es[want].ik) != 0 || string(v) != es[want].v) {
				t.Fatalf("trial %d: get %q wrong entry", trial, uk)
			}
		}
	}
}

// Truncation / bit-flip corruption must never yield silently wrong data.
func TestTableCorruptionDetected(t *testing.T) {
	tl := vclock.NewTimeline(0)
	f := &memFile{}
	opts := Options{BlockSize: 256, RestartInterval: 4, BloomBitsPerKey: 10}
	b := NewBuilder(f, opts)
	var es []entry
	for i := 0; i < 500; i++ {
		ik := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%05d", i)), keys.SeqNum(i+1), keys.KindValue)
		es = append(es, entry{ik, fmt.Sprintf("val%d", i)})
		b.Add(tl, ik, []byte(fmt.Sprintf("val%d", i)))
	}
	b.Finish(tl)
	good := append([]byte(nil), f.b...)
	for pos := 0; pos < len(good); pos += 101 {
		img := append([]byte(nil), good...)
		img[pos] ^= 0xff
		r, err := Open(tl, &memFile{b: img}, opts, 1, nil)
		if err != nil {
			continue // detected at open
		}
		it := r.NewIterator(tl)
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if i >= len(es) {
				break
			}
			if keys.CompareInternal(it.Key(), es[i].ik) != 0 || string(it.Value()) != es[i].v {
				// wrong data must be accompanied by an error
				if it.Err() == nil {
					t.Fatalf("flip at %d: silently wrong entry %d: got %s", pos, i, keys.String(it.Key()))
				}
				break
			}
			i++
		}
		if it.Err() == nil && i != len(es) {
			t.Errorf("flip at %d: clean iteration but only %d/%d entries", pos, i, len(es))
		}
	}
}

// Varied-length user keys exercise SeparatorInternal/SuccessorInternal
// shortening in the index block.
func TestTableVariedKeys(t *testing.T) {
	tl := vclock.NewTimeline(0)
	rnd := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		ukset := map[string]bool{}
		n := rnd.Intn(300) + 2
		for i := 0; i < n; i++ {
			l := rnd.Intn(8) + 1
			b := make([]byte, l)
			for j := range b {
				b[j] = byte(rnd.Intn(5)) + 'a'
			}
			ukset[string(b)] = true
		}
		var es []entry
		seq := keys.SeqNum(1)
		for uk := range ukset {
			nv := rnd.Intn(3) + 1
			for j := 0; j < nv; j++ {
				es = append(es, entry{keys.MakeInternalKey(nil, []byte(uk), seq, keys.KindValue), fmt.Sprintf("v%d", seq)})
				seq++
			}
		}
		sort.Slice(es, func(a, b int) bool { return keys.CompareInternal(es[a].ik, es[b].ik) < 0 })
		f := &memFile{}
		opts := Options{BlockSize: 64, RestartInterval: 2, BloomBitsPerKey: 10}
		b := NewBuilder(f, opts)
		for _, e := range es {
			if err := b.Add(tl, e.ik, []byte(e.v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Finish(tl); err != nil {
			t.Fatal(err)
		}
		r, err := Open(tl, f, opts, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIterator(tl)
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if keys.CompareInternal(it.Key(), es[i].ik) != 0 || string(it.Value()) != es[i].v {
				t.Fatalf("trial %d idx %d: got %s want %s", trial, i, keys.String(it.Key()), keys.String(es[i].ik))
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(es) {
			t.Fatalf("trial %d: scan %d of %d", trial, i, len(es))
		}
		for probe := 0; probe < 500; probe++ {
			l := rnd.Intn(9) + 1
			ub := make([]byte, l)
			for j := range ub {
				ub[j] = byte(rnd.Intn(6)) + 'a' - 1
			}
			s := keys.SeqNum(rnd.Intn(int(seq) + 2))
			target := keys.MakeInternalKey(nil, ub, s, keys.KindSeek)
			want := sort.Search(len(es), func(j int) bool { return keys.CompareInternal(es[j].ik, target) >= 0 })
			it.Seek(target)
			if err := it.Err(); err != nil {
				t.Fatalf("trial %d seek err %v", trial, err)
			}
			if want == len(es) {
				if it.Valid() {
					t.Fatalf("trial %d: seek %s: want invalid got %s", trial, keys.String(target), keys.String(it.Key()))
				}
				continue
			}
			if !it.Valid() || keys.CompareInternal(it.Key(), es[want].ik) != 0 || string(it.Value()) != es[want].v {
				got := "invalid"
				if it.Valid() {
					got = keys.String(it.Key())
				}
				t.Fatalf("trial %d: seek %s: want %s got %s", trial, keys.String(target), keys.String(es[want].ik), got)
			}
		}
	}
}
