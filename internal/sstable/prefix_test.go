package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"testing"

	"noblsm/internal/block"
	"noblsm/internal/cache"
	"noblsm/internal/dbbench"
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

// prefixTable builds, into memory, a table of n entries with keys
// "key%05d.v" at even numbers and compressible values of 10 to 400
// bytes, and returns its image and entries in order. With versions,
// the i-th user key has 1 + i%3 versions. The suffix lets most index
// separators be shorter than the key before them ("key00011" between
// "key00010.v" and "key00012.v"), so blocks have a gap before their
// separator.
func prefixTable(t *testing.T, opts Options, n int, versions bool) ([]byte, []entry) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(opts.BlockSize*31 + opts.RestartInterval)))
	tl := vclock.NewTimeline(0)
	f := &memFile{}
	b := NewBuilder(f, opts)
	es := make([]entry, 0, n)
	for u := 0; len(es) < n; u++ {
		nv := 1
		if versions {
			nv += u % 3
		}
		for v := nv; v > 0 && len(es) < n; v-- {
			i := len(es)
			val := bytes.Repeat([]byte(fmt.Sprintf("v%d.", i)), 1+rnd.Intn(60))
			e := entry{ik(fmt.Sprintf("key%05d.v", 2*u), keys.SeqNum(3*u+v)), string(val[:min(len(val), 10+rnd.Intn(391))])}
			if err := b.Add(tl, e.ik, []byte(e.v)); err != nil {
				t.Fatal(err)
			}
			es = append(es, e)
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

// TestPointPathMatchesFullDecode probes compressed tables of both
// codecs (FastCompression's blocks one window each, MaxCompression's
// windowed) at three block sizes and restart intervals, and of 32 KiB
// blocks — blocks of one window, of four and of sixteen — of distinct
// user keys and of several versions of one, through
// two identical stacks, one seeking with the prefix path and one
// decoding every block whole (seekWhole), and walks each probe's
// position with Next to the end — across windows and blocks. Both must
// see the same entries and errors, and after every probe the same
// virtual clock and the same hits, misses and fills in both tiers. The
// probes are every key, every user key as a Get seeks it, a key before
// the first, between each pair and after the last, for each block its
// index separator and the key just past its last entry — keys in the
// gap between a block's last entry and its separator, whose scan
// reaches the end of the entries — and for each window the key just
// past its last entry, whose scan goes on into the next window.
func TestPointPathMatchesFullDecode(t *testing.T) {
	for _, c := range []Compression{FastCompression, MaxCompression} {
		for _, bs := range []int{256, 1024, 8192, 32768} {
			for _, ri := range []int{1, 4, 16} {
				if bs > 8192 && (ri < 16 || c != MaxCompression) {
					continue // sixteen windows a block: one codec and interval is enough
				}
				opts := Options{BlockSize: bs, RestartInterval: ri, BloomBitsPerKey: 10, Compression: c}
				t.Run(fmt.Sprintf("%v/block%d/restart%d", c, bs, ri), func(t *testing.T) {
					comparePointPaths(t, opts, false)
				})
				if bs >= 8192 && ri == 16 {
					t.Run(fmt.Sprintf("versions/%v/block%d/restart%d", c, bs, ri), func(t *testing.T) {
						comparePointPaths(t, opts, true)
					})
				}
			}
		}
	}
}

func comparePointPaths(t *testing.T, opts Options, versions bool) {
	img, es := prefixTable(t, opts, 100+opts.BlockSize/64, versions) // several blocks at every size
	pr, ptl, phot, pwarm := tieredReader(t, img, opts)
	wr, wtl, whot, wwarm := tieredReader(t, img, opts)

	hs := dataHandles(t, pr)
	compressed, windowed := 0, 0
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
		ukey, seq, _, _ := keys.ParseInternalKey(e.ik)
		probes = append(probes, e.ik, ik(string(ukey), keys.MaxSeqNum), keys.MakeInternalKey(nil, ukey, seq-1, keys.KindValue),
			ik(fmt.Sprintf("key%05d", 2*i+1), keys.MaxSeqNum))
	}
	idx := pr.index.NewIter()
	for idx.First(); idx.Valid(); idx.Next() {
		probes = append(probes, append([]byte(nil), idx.Key()...))
	}
	pastWindow := 0 // probes just past a window's last entry, a block's last aside
	for _, h := range hs {
		codec := img[h.Offset+h.Size]
		starts := windowStarts(t, img[h.Offset:h.Offset+h.Size], codec)
		if len(starts) > 1 {
			windowed++
		}
		dec := mustDecode(t, img[h.Offset:h.Offset+h.Size], codec)
		firsts := map[string]bool{}
		for _, start := range starts[1:] {
			// A window opens with a restart: shared 0, the key whole.
			_, n1 := binary.Uvarint(dec[start:])
			unshared, n2 := binary.Uvarint(dec[start+n1:])
			_, n3 := binary.Uvarint(dec[start+n1+n2:])
			p := start + n1 + n2 + n3
			firsts[string(dec[p:p+int(unshared)])] = true
		}
		br, err := block.NewReader(dec, keys.CompareInternal)
		if err != nil {
			t.Fatal(err)
		}
		bit := br.NewIter()
		for bit.First(); bit.Valid(); {
			key := append([]byte(nil), bit.Key()...)
			bit.Next()
			past := !bit.Valid()
			if bit.Valid() && firsts[string(bit.Key())] {
				past = true
				pastWindow++
			}
			if past {
				ukey, seq, _, _ := keys.ParseInternalKey(key)
				probes = append(probes, keys.MakeInternalKey(nil, ukey, seq-1, keys.KindValue))
			}
		}
	}
	if w := opts.Compression.window(); w == 0 && windowed > 0 {
		t.Fatalf("%d of %d blocks of %v in more than one window; its blocks are one window each", windowed, len(hs), opts.Compression)
	} else if w > 0 && opts.BlockSize > 2*w && (windowed*2 < len(hs) || pastWindow == 0) {
		t.Fatalf("%d of %d blocks in more than one window, %d window ends: the test needs many", windowed, len(hs), pastWindow)
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
	// A table of versions cuts its blocks inside one user key's versions,
	// where no probe scans to a block's end: it may decode no block whole.
	if prefixes == 0 || wholes == 0 && !versions {
		t.Fatalf("of the misses, %d decoded a prefix and %d the whole block: the test needs both", prefixes, wholes)
	}
}

// windowStarts returns where the windows of a stored block payload
// start in its image: {0} for a raw block.
func windowStarts(t *testing.T, payload []byte, codec byte) []int {
	t.Helper()
	if codec == 0 {
		return []int{0}
	}
	var w windowed
	if _, err := w.reset(nil, payload); err != nil {
		t.Fatal(err)
	}
	starts := make([]int, w.Windows())
	for i := range starts {
		starts[i], _ = w.Window(i)
	}
	return starts
}

// TestPointReadDecodesOneWindow seeks every key of a MaxCompression
// table of 32 KiB blocks as a Get does — its user key at the newest
// sequence — through a reader with no block tiers, so every Seek
// misses both and decodes. Each must decode at most one window and one
// entry, plus the first keys of the windows it searched: a window
// closes at the first entry past windowBytes, the read decodes the one
// holding its user key only as far as its entry, and a search of k
// windows decodes the first keys of at most ⌈log2 k⌉ of them, each
// taking a header's worth of bytes and at most one token past it.
func TestPointReadDecodesOneWindow(t *testing.T) {
	opts := Options{BlockSize: 32 << 10, RestartInterval: 16, BloomBitsPerKey: 10, Compression: MaxCompression}
	img, es := prefixTable(t, opts, 600, true)
	r, err := Open(vclock.NewTimeline(0), &memFile{b: img}, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxEntry, windows := 0, 0
	for _, e := range es {
		maxEntry = max(maxEntry, 3*binary.MaxVarintLen32+len(e.ik)+len(e.v))
	}
	for _, h := range dataHandles(t, r) {
		windows = max(windows, len(windowStarts(t, img[h.Offset:h.Offset+h.Size], img[h.Offset+h.Size])))
	}
	if windows < 8 {
		t.Fatalf("blocks of at most %d windows: the test needs many", windows)
	}
	const maxToken = 127 // the longest literal
	bound := windowBytes + maxEntry + bits.Len(uint(windows-1))*(3*binary.MaxVarintLen64+maxToken)
	tl := vclock.NewTimeline(0)
	var it Iter
	worst := 0
	for _, e := range es {
		ukey := keys.UserKey(e.ik)
		it.Reset(r, tl)
		it.Seek(ik(string(ukey), keys.MaxSeqNum))
		if !it.Valid() || !bytes.Equal(keys.UserKey(it.Key()), ukey) {
			t.Fatalf("seek %q: at %v %s, error %v", ukey, it.Valid(), keys.String(it.Key()), it.Err())
		}
		dec, decl := it.Decoded()
		if decl == 0 || dec > bound {
			t.Fatalf("seek %q decoded %d bytes of a %d-byte block, want at most %d", ukey, dec, decl, bound)
		}
		worst = max(worst, dec)
	}
	it.Release()
	t.Logf("%d seeks decoded at most %d bytes (bound %d, windows of %d bytes)", len(es), worst, bound, windowBytes)
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
// fixture is a compressed block whose last window's token stream is
// malformed, under a recomputed CRC: a point read of the block's first
// entry decodes only the first window as far as the entry, and the first
// keys of the windows it searches, and returns it, while every reader
// that decodes further — a Next past the prefix, a scan, a compaction
// and the block's first hot-tier hit — fails with ErrCorrupt. The CRC
// guards every stored byte before any decode; the codec's checks run on
// the bytes a reader decodes.
func TestPrefixDecodeIntegrity(t *testing.T) {
	opts := Options{BlockSize: 8192, RestartInterval: 16, BloomBitsPerKey: 10, Compression: MaxCompression}
	img, es := prefixTable(t, opts, 150, false)
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

	// Zero the second half of the last window's token stream: the first
	// token there reads as a literal of length 0. A search for the first
	// entry compares the first keys of the middle windows only.
	dir, err := parseDir(payload)
	if err != nil || dir.k < 3 {
		t.Fatalf("the middle block has %d windows (%v); the test needs three", dir.k, err)
	}
	var last []byte
	for dir.k > 0 {
		last, _, _ = dir.next()
	}
	clear(last[len(last)/2:])
	if _, err := decode(nil, payload, img[h.Offset+h.Size]); err == nil {
		t.Fatal("the fixture's windows decode whole")
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

// BenchmarkTableGetCold is a point read's host cost on an encoded table
// when the block misses both tiers, as most Gets of the read_cold
// benchmark do: a MaxCompression table of 8 KiB blocks of 16-byte keys
// and the benchmark's 1 KiB values, probed at its keys in a scattered
// order through a reader with no block tiers, so each Seek reads,
// CRC-checks and decodes what it needs of a block — one window and the
// first keys of those it searches. decoded_share is the share of the
// blocks' bytes it decoded (engine.get_decoded_bytes over
// get_declared_bytes); BenchmarkDecode and BenchmarkDecodePrefix
// (internal/compress) are the codec alone on whole blocks and their
// median entry.
func BenchmarkTableGetCold(b *testing.B) {
	opts := Options{BlockSize: 8192, RestartInterval: 16, BloomBitsPerKey: 10, Compression: MaxCompression}
	tl := vclock.NewTimeline(0)
	f := &memFile{}
	tb := NewBuilder(f, opts)
	const n = 4000
	seeks := make([][]byte, n)
	for i := range seeks {
		ukey := []byte(fmt.Sprintf("%016d", i*3))
		if err := tb.Add(tl, keys.MakeInternalKey(nil, ukey, keys.SeqNum(i+1), keys.KindValue), dbbench.CompressibleValue(nil, int64(i), 0, 1024)); err != nil {
			b.Fatal(err)
		}
		seeks[(i*1543)%n] = keys.MakeInternalKey(nil, ukey, keys.MaxSeqNum, keys.KindSeek)
	}
	if err := tb.Finish(tl); err != nil {
		b.Fatal(err)
	}
	r, err := Open(tl, f, opts, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	var it Iter
	decoded, declared := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Reset(r, tl)
		if it.Seek(seeks[i%n]); !it.Valid() {
			b.Fatal("a key is missing", it.Err())
		}
		dec, decl := it.Decoded()
		decoded, declared = decoded+dec, declared+decl
	}
	b.ReportMetric(float64(decoded)/float64(declared), "decoded_share")
	it.Release()
}
