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

// pieces yields an image stored in windows starting at starts (after
// 0) a piece at a time, as a decoder of whole tokens does: each Fill
// returns what was asked for of its window rounded up to a multiple of
// step, never less than before, and fails once asked for a window's
// bytes past image offset fail, when fail is positive: a window that
// ends by fail never fails, one that starts past it always does.
type pieces struct {
	img        []byte
	starts     []int
	step, fail int
	out        []int // bytes of each window out
}

func (p *pieces) Windows() int { return len(p.starts) + 1 }

func (p *pieces) Window(w int) (start, end int) {
	if w > 0 {
		start = p.starts[w-1]
	}
	if end = len(p.img); w < len(p.starts) {
		end = p.starts[w]
	}
	return start, end
}

func (p *pieces) Fill(w, limit int) ([]byte, error) {
	if p.out == nil {
		p.out = make([]int, p.Windows())
	}
	start, end := p.Window(w)
	p.out[w] = max(p.out[w], min(end-start, (limit-start+p.step-1)/p.step*p.step))
	if p.fail > 0 && start+p.out[w] > p.fail {
		return nil, errors.New("pieces: source failed")
	}
	return p.img[:start+p.out[w]], nil
}

// windowedBlock builds a block of ks with values of random lengths,
// closing a window at the first entry boundary at or past window bytes
// from its start (0: one window), and returns the image and where the
// windows after the first start.
func windowedBlock(rnd *rand.Rand, ri, window int, ks []string) ([]byte, []int) {
	b := NewBuilder(ri)
	var starts []int
	for i, k := range ks {
		if start := 0; i > 0 && window > 0 {
			if len(starts) > 0 {
				start = starts[len(starts)-1]
			}
			if b.Offset()-start >= window {
				starts = append(starts, b.Offset())
				b.Restart()
			}
		}
		b.Add([]byte(k), bytes.Repeat([]byte{byte(i)}, rnd.Intn(300)))
	}
	return append([]byte(nil), b.Finish()...), starts
}

// TestSeekPrefixMatchesSeek builds random blocks, in one window and in
// windows of several sizes, and seeks every key, every key's successor
// and targets before the first and past the last, through SeekPrefix
// over the image in pieces of several sizes. Where Seek finds an entry,
// SeekPrefix must find the same one, having asked of its window for no
// more than the end of the entry and one header past it, of the window
// before it for no more than all of it, and of every other window for
// no more than its first entry and one header past it; after the whole
// image is Init under it, Next must go where Seek's Next goes — into
// the next window too. Where Seek finds none, SeekPrefix must report
// false: its scan reached the end of the entries. A source that fails
// makes it report false unless the entry was out before the failure.
func TestSeekPrefixMatchesSeek(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	multi := 0         // blocks of three windows or more
	var failing [2]int // failing sources SeekPrefix gave up on, found in
	for trial := 0; trial < 300; trial++ {
		ri := []int{1, 4, 16}[rnd.Intn(3)]
		window := []int{0, 1, 400, 1500}[trial%4]
		var ks []string
		for k := range rnd.Intn(40) {
			ks = append(ks, fmt.Sprintf("k%04d", 3*k+rnd.Intn(3)))
		}
		img, starts := windowedBlock(rnd, ri, window, ks)
		whole, err := NewReader(img, bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		if len(starts) > 1 {
			multi++
		}
		var targets []string
		for _, k := range ks {
			targets = append(targets, k, k+"+")
		}
		targets = append(targets, "", "k", "z")
		for _, target := range targets {
			want := whole.NewIter()
			want.Seek([]byte(target))
			for _, step := range []int{1, 7, 64, len(img)} {
				src := &pieces{img: img, starts: starts, step: step}
				var r Reader
				var it Iter
				if !r.SeekPrefix(&it, src, []byte(target), bytes.Compare, bytes.Compare) {
					if want.Valid() {
						t.Fatalf("trial %d, step %d: SeekPrefix(%q) gave up; Seek finds %q", trial, step, target, want.Key())
					}
					continue
				}
				if !want.Valid() || !bytes.Equal(it.Key(), want.Key()) || !bytes.Equal(it.Value(), want.Value()) {
					t.Fatalf("trial %d, step %d: SeekPrefix(%q) at %q; Seek at %v %q", trial, step, target, it.Key(), want.Valid(), want.Key())
				}
				found := sort.SearchInts(starts, it.off)
				for w := range src.Windows() {
					start, end := src.Window(w)
					var limit int
					switch {
					case w == found:
						limit = it.off + maxHeaderLen
					case w == found-1:
						limit = end
					default:
						limit = firstEntryEnd(t, img, start) + maxHeaderLen
					}
					if need := min(end-start, (limit-start+step-1)/step*step); src.out[w] > need {
						t.Fatalf("trial %d, step %d: SeekPrefix(%q), entry ending at %d in window %d: asked window %d [%d, %d) for %d bytes, want at most %d",
							trial, step, target, it.off, found, w, start, end, src.out[w], need)
					}
				}
				if err := r.Init(img, bytes.Compare); err != nil {
					t.Fatal(err)
				}
				next := whole.NewIter()
				next.Seek([]byte(target))
				next.Next()
				it.Next()
				if it.Valid() != next.Valid() || !bytes.Equal(it.Key(), next.Key()) {
					t.Fatalf("trial %d, step %d: Next after SeekPrefix(%q) at %v %q; after Seek at %v %q", trial, step, target, it.Valid(), it.Key(), next.Valid(), next.Key())
				}
			}
			if want.Valid() {
				fail := want.off + rnd.Intn(2*maxHeaderLen) - maxHeaderLen
				var r Reader
				var it Iter
				src := &pieces{img: img, starts: starts, step: 1, fail: max(fail, 1)}
				ok := r.SeekPrefix(&it, src, []byte(target), bytes.Compare, bytes.Compare)
				if ok && fail < it.off {
					t.Fatalf("trial %d: SeekPrefix(%q) found an entry ending at %d from a source failing past %d", trial, target, it.off, fail)
				}
				if ok {
					failing[1]++
				} else {
					failing[0]++
				}
			}
		}
	}
	if multi < 50 {
		t.Fatalf("%d blocks of three windows or more: the test needs many", multi)
	}
	if failing[0] < 100 || failing[1] < 100 {
		t.Fatalf("failing sources: SeekPrefix gave up on %d, found in %d; the test needs many of each", failing[0], failing[1])
	}
	var r Reader
	var it Iter
	if r.SeekPrefix(&it, &pieces{img: hugeUnsharedBlock, step: 1}, []byte("a"), bytes.Compare, bytes.Compare) {
		t.Fatal("SeekPrefix found an entry in a block whose key length is 2^63-1")
	}
}

// firstEntryEnd is where the entry at off, a restart point, ends.
func firstEntryEnd(t *testing.T, img []byte, off int) int {
	t.Helper()
	r, err := NewReader(img, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	_, p, unshared, vlen, ok := r.header(off)
	if !ok {
		t.Fatalf("no entry at %d", off)
	}
	return p + int(unshared+vlen)
}

// TestSeekPrefixWindowOrder searches windows under an order coarser
// than the block's: keys that share their first four bytes are equal
// under it. When no window boundary splits such keys, SeekPrefix finds
// what Seek finds, and starts in the window holding the target's equal
// keys, not the one before it.
func TestSeekPrefixWindowOrder(t *testing.T) {
	coarse := func(a, b []byte) int { return bytes.Compare(a[:min(len(a), 4)], b[:min(len(b), 4)]) }
	var ks []string
	for g := range 30 {
		for v := range 1 + g%3 {
			ks = append(ks, fmt.Sprintf("g%03d.%d", g, v))
		}
	}
	// Windows of two groups each: boundaries only between groups.
	b := NewBuilder(16)
	var starts []int
	for i, k := range ks {
		if i > 0 && k[:4] != ks[i-1][:4] && k[3]%2 == '0'%2 {
			starts = append(starts, b.Offset())
			b.Restart()
		}
		b.Add([]byte(k), []byte(k))
	}
	img := b.Finish()
	whole, err := NewReader(img, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		for _, target := range []string{k, k[:4], k + "+"} {
			want := whole.NewIter()
			want.Seek([]byte(target))
			src := &pieces{img: img, starts: starts, step: 1}
			var r Reader
			var it Iter
			ok := r.SeekPrefix(&it, src, []byte(target), bytes.Compare, coarse)
			if ok != want.Valid() || ok && !bytes.Equal(it.Key(), want.Key()) {
				t.Fatalf("SeekPrefix(%q) at %v %q; Seek at %v %q", target, ok, it.Key(), want.Valid(), want.Key())
			}
			if !ok || target != k[:4] {
				continue
			}
			// The target sorts before every key of its group, and below
			// the first key of its group's window: the window before that
			// one is searched, not scanned.
			if w := sort.SearchInts(starts, it.off); w > 0 {
				start, _ := src.Window(w - 1)
				if need := firstEntryEnd(t, img, start) + maxHeaderLen - start; src.out[w-1] > need {
					t.Fatalf("SeekPrefix(%q) decoded %d bytes of the window before the entry's, want at most %d", target, src.out[w-1], need)
				}
			}
		}
	}
}

// TestSeekClearsLastWalksError: a walk that met a malformed entry ends
// with ErrBadBlock, and a Seek that lands past it starts a new walk,
// which reaches the end with no error: an error belongs to the walk
// that met it.
func TestSeekClearsLastWalksError(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 16; i++ {
		b.Add([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	img := b.Finish()
	// Entry 0 is three one-byte varints, "k00" and "v"; entry 1, no
	// restart point, claims to share more than the key before it holds.
	img[7] = 0x7f
	r, err := NewReader(img, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIter()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if n != 1 || !errors.Is(it.Err(), ErrBadBlock) {
		t.Fatalf("first walk: %d entries, err %v; want 1 and ErrBadBlock", n, it.Err())
	}
	n = 0
	for it.Seek([]byte("k08")); it.Valid(); it.Next() {
		n++
	}
	if n != 8 || it.Err() != nil {
		t.Fatalf("walk from k08: %d entries, err %v; want 8 and no error", n, it.Err())
	}
}
