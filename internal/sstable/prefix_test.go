package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"noblsm/internal/block"
	"noblsm/internal/cache"
	"noblsm/internal/compress"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
)

// seekWhole is Seek as it was before a point read decoded only a
// prefix of its block: the block decoded whole, then searched. It is
// the reference the prefix path must match.
func seekWhole(it *Iter, target []byte) {
	it.idx.Seek(target)
	if !it.idx.Valid() || !it.loadDataBlock(nil) {
		it.inBlock = false
		return
	}
	it.data.Seek(target)
	it.skipExhausted()
}

// prefixTable builds, into memory, a table of n keys "key%05d.v" at
// even numbers with compressible values of 10 to 400 bytes, and returns
// its image and entries in order. The suffix lets most index separators
// be shorter than the key before them ("key00011" between "key00010.v"
// and "key00012.v"), so blocks have a gap before their separator.
func prefixTable(t *testing.T, opts Options, n int) ([]byte, []entry) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(opts.BlockSize*31 + opts.RestartInterval)))
	tl := vclock.NewTimeline(0)
	f := &memFile{}
	b := NewBuilder(f, opts)
	es := make([]entry, n)
	for i := range es {
		v := bytes.Repeat([]byte(fmt.Sprintf("v%d.", i)), 1+rnd.Intn(60))
		es[i] = entry{ik(fmt.Sprintf("key%05d.v", 2*i), keys.SeqNum(i+1)), string(v[:min(len(v), 10+rnd.Intn(391))])}
		if err := b.Add(tl, es[i].ik, []byte(es[i].v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	return f.b, es
}

// tieredReader writes img to a fresh filesystem and opens it with a hot
// tier of about one block and a warm tier of a few payloads, so probes
// both hit and miss.
func tieredReader(t *testing.T, img []byte, opts Options) (*Reader, *vclock.Timeline, *cache.Cache, *cache.Cache) {
	t.Helper()
	fs, tl := newFS()
	f, err := fs.Create(tl, "p.ldb")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(tl, img); err != nil {
		t.Fatal(err)
	}
	hot, warm := cache.New(int64(3*opts.BlockSize/2)), cache.New(int64(opts.BlockSize))
	opts.CompressedCache = warm
	r, err := Open(tl, f, opts, 1, hot)
	if err != nil {
		t.Fatal(err)
	}
	return r, tl, hot, warm
}

// TestPointPathMatchesFullDecode probes compressed tables of every
// codec, block size and restart interval through two identical stacks,
// one seeking with the prefix path and one decoding every block whole
// (seekWhole), and walks each probe's position with Next to the end.
// Both must see the same entries and errors, and after every probe the
// same virtual clock and the same hits, misses and fills in both tiers.
// The probes are every key, a key before the first, between each pair
// and after the last, and for each block its index separator and the
// key just past its last entry — keys in the gap between a block's last
// entry and its separator, whose scan reaches the end of the entries.
func TestPointPathMatchesFullDecode(t *testing.T) {
	for _, c := range []Compression{FastCompression, MaxCompression} {
		for _, bs := range []int{256, 1024, 8192} {
			for _, ri := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%v/block%d/restart%d", c, bs, ri), func(t *testing.T) {
					opts := Options{BlockSize: bs, RestartInterval: ri, BloomBitsPerKey: 10, Compression: c}
					comparePointPaths(t, opts)
				})
			}
		}
	}
}

func comparePointPaths(t *testing.T, opts Options) {
	img, es := prefixTable(t, opts, 100+opts.BlockSize/64) // several blocks at every size
	pr, ptl, phot, pwarm := tieredReader(t, img, opts)
	wr, wtl, whot, wwarm := tieredReader(t, img, opts)

	hs := dataHandles(t, pr)
	compressed := 0
	for _, h := range hs {
		if img[h.Offset+h.Size] != 0 {
			compressed++
		}
	}
	if len(hs) < 2 || compressed*10 < len(hs)*9 {
		t.Fatalf("%d data blocks, %d compressed: the test needs several, nearly all compressed", len(hs), compressed)
	}

	probes := [][]byte{ik("key", keys.MaxSeqNum)}
	for i, e := range es {
		probes = append(probes, e.ik, ik(fmt.Sprintf("key%05d", 2*i+1), keys.MaxSeqNum))
	}
	idx := pr.index.NewIter()
	for idx.First(); idx.Valid(); idx.Next() {
		probes = append(probes, append([]byte(nil), idx.Key()...))
	}
	for _, h := range hs {
		br, err := block.NewReader(mustDecode(t, img[h.Offset:h.Offset+h.Size], img[h.Offset+h.Size]), keys.CompareInternal)
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		bit := br.NewIter()
		for bit.First(); bit.Valid(); bit.Next() {
			last = append(last[:0], bit.Key()...)
		}
		ukey, seq, _, _ := keys.ParseInternalKey(last)
		probes = append(probes, keys.MakeInternalKey(nil, ukey, seq-1, keys.KindValue))
	}

	var pit, wit Iter
	prefixes, wholes := 0, 0
	for _, target := range probes {
		pit.Reset(pr, ptl)
		wit.Reset(wr, wtl)
		pit.Seek(target)
		seekWhole(&wit, target)
		if dec, decl := pit.Decoded(); decl > 0 {
			if dec < decl {
				prefixes++
			} else {
				wholes++
			}
		}
		for step := 0; pit.Valid() || wit.Valid(); step++ {
			if pit.Valid() != wit.Valid() || !bytes.Equal(pit.Key(), wit.Key()) || !bytes.Equal(pit.Value(), wit.Value()) {
				t.Fatalf("seek %s, step %d: prefix path at %v %s, whole-block path at %v %s",
					keys.String(target), step, pit.Valid(), keys.String(pit.Key()), wit.Valid(), keys.String(wit.Key()))
			}
			pit.Next()
			wit.Next()
		}
		if pe, we := pit.Err(), wit.Err(); fmt.Sprint(pe) != fmt.Sprint(we) {
			t.Fatalf("seek %s: errors %v and %v", keys.String(target), pe, we)
		}
		if ptl.Now() != wtl.Now() {
			t.Fatalf("seek %s: virtual clock %v on the prefix path, %v decoding whole blocks", keys.String(target), ptl.Now(), wtl.Now())
		}
		for name, tiers := range map[string][2]*cache.Cache{"hot": {phot, whot}, "warm": {pwarm, wwarm}} {
			ph, pm := tiers[0].Stats()
			wh, wm := tiers[1].Stats()
			if ph != wh || pm != wm || tiers[0].Fills() != tiers[1].Fills() {
				t.Fatalf("seek %s: %s tier hits/misses/fills %d/%d/%d on the prefix path, %d/%d/%d decoding whole blocks",
					keys.String(target), name, ph, pm, tiers[0].Fills(), wh, wm, tiers[1].Fills())
			}
		}
	}
	pit.Release()
	wit.Release()
	if prefixes == 0 || wholes == 0 {
		t.Fatalf("of the misses, %d decoded a prefix and %d the whole block: the test needs both", prefixes, wholes)
	}
}

// mustDecode expands a stored payload per its codec tag.
func mustDecode(t *testing.T, payload []byte, codec byte) []byte {
	t.Helper()
	dec, err := decode(nil, payload, codec)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestPrefixDecodeIntegrity pins what a point read does not check. The
// fixture is a compressed block whose token stream is malformed after
// its first entry, under a recomputed CRC: a point read of that entry
// decodes only as far as the entry and returns it, while every reader
// that decodes further — a Next past the prefix, a scan, a compaction
// and the block's first hot-tier hit — fails with ErrCorrupt. The CRC
// guards every stored byte before any decode; the codec's checks run on
// the bytes a reader decodes.
func TestPrefixDecodeIntegrity(t *testing.T) {
	opts := Options{BlockSize: 4096, RestartInterval: 16, BloomBitsPerKey: 10, Compression: FastCompression}
	img, es := prefixTable(t, opts, 150)
	r, err := Open(vclock.NewTimeline(0), &memFile{b: img}, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := dataHandles(t, r)
	if len(hs) < 3 {
		t.Fatalf("%d data blocks; the test needs a middle one", len(hs))
	}
	h := hs[len(hs)/2]
	payload := img[h.Offset : h.Offset+h.Size]
	if img[h.Offset+h.Size] == 0 {
		t.Fatal("the middle block is stored raw")
	}
	br, err := block.NewReader(mustDecode(t, payload, img[h.Offset+h.Size]), keys.CompareInternal)
	if err != nil {
		t.Fatal(err)
	}
	bit := br.NewIter()
	bit.First()
	first := append([]byte(nil), bit.Key()...)
	want := string(bit.Value())

	// Zero the second half of the token stream: the first token there
	// reads as a literal of length 0. The first entry lies in the first
	// half's output.
	for i := len(payload) / 2; i < len(payload); i++ {
		payload[i] = 0
	}
	var z compress.Decoder
	n, err := z.Reset(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.Fill(len(first) + len(want) + 64); err != nil {
		t.Fatalf("the fixture's first entry does not decode: %v", err)
	}
	if _, err := z.Fill(n); err == nil {
		t.Fatal("the fixture's token stream decodes whole")
	}
	crc := crc32.New(castagnoli)
	crc.Write(payload)
	crc.Write(img[h.Offset+h.Size : h.Offset+h.Size+1])
	binary.LittleEndian.PutUint32(img[h.Offset+h.Size+1:], crc.Sum32())

	open := func(hot *cache.Cache) (*Reader, *vclock.Timeline) {
		tl := vclock.NewTimeline(0)
		r, err := Open(tl, &memFile{b: img}, opts, 1, hot)
		if err != nil {
			t.Fatal(err)
		}
		return r, tl
	}
	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", what, err)
		}
	}

	hot := cache.New(1 << 20)
	r, tl := open(hot)
	k, v, found, err := r.Get(tl, first)
	if err != nil || !found || !bytes.Equal(k, first) || string(v) != want {
		t.Fatalf("point read of the block's first entry: %s=%q, found %v, error %v", keys.String(k), v, found, err)
	}
	_, _, _, err = r.Get(tl, first)
	corrupt("the block's first hot-tier hit", err)

	r, tl = open(nil)
	it := r.NewIterator(tl)
	it.Seek(first)
	if !it.Valid() || string(it.Value()) != want {
		t.Fatalf("scan's Seek to the block's first entry: valid %v, error %v", it.Valid(), it.Err())
	}
	it.Next()
	if it.Valid() {
		t.Errorf("Next past the prefix is at %s", keys.String(it.Key()))
	}
	corrupt("Next past the prefix", it.Err())

	for name, it := range map[string]*Iter{"scan": r.NewIterator(tl), "compaction": newChargedScan(r, tl)} {
		n := 0
		for it.First(); it.Valid(); it.Next() {
			if !bytes.Equal(it.Key(), es[n].ik) {
				t.Fatalf("%s: entry %d is %s", name, n, keys.String(it.Key()))
			}
			n++
		}
		corrupt(name, it.Err())
	}
}
