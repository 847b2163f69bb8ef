package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"noblsm/internal/block"
	"noblsm/internal/cache"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// raceEnabled reports a -race build. sync.Pool drops a share of what it
// is handed back under the race detector, so the pooled paths allocate
// there and the allocation gates below skip.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// dataHandles lists the table's data blocks in order.
func dataHandles(t *testing.T, r *Reader) []Handle {
	t.Helper()
	var hs []Handle
	it := r.index.NewIter()
	for it.First(); it.Valid(); it.Next() {
		h, _, err := decodeHandle(it.Value())
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return hs
}

// TestMalformedEntryStopsScan plants a malformed entry — its shared
// prefix longer than the key before it — as the third entry of a middle
// data block of a raw table, and rewrites the block's CRC so only the
// entry decoder can notice. A scan, from the start or from a Seek into
// that block, must return every key before the entry and then stop with
// an error: resuming at the next block would skip the rest of the
// damaged one with no error at all.
func TestMalformedEntryStopsScan(t *testing.T) {
	tl := vclock.NewTimeline(0)
	f := &memFile{}
	opts := Options{BlockSize: 256, RestartInterval: 4, BloomBitsPerKey: 10}
	b := NewBuilder(f, opts)
	const n = 400
	for i := 0; i < n; i++ {
		if err := b.Add(tl, ik(fmt.Sprintf("key%05d", i), keys.SeqNum(i+1)), []byte(fmt.Sprintf("val%d", i))); err != nil {
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
	hs := dataHandles(t, r)
	if len(hs) < 5 {
		t.Fatalf("%d data blocks; the test needs a middle one", len(hs))
	}
	mid := len(hs) / 2
	before := 0 // entries in the blocks ahead of the damaged one
	for _, h := range hs[:mid] {
		br, err := block.NewReader(f.b[h.Offset:h.Offset+h.Size], keys.CompareInternal)
		if err != nil {
			t.Fatal(err)
		}
		it := br.NewIter()
		for it.First(); it.Valid(); it.Next() {
			before++
		}
	}

	img := append([]byte(nil), f.b...)
	h := hs[mid]
	blk := img[h.Offset : h.Offset+h.Size]
	off := 0
	for e := 0; e < 2; e++ { // step over two entries to the third
		_, n1 := binary.Uvarint(blk[off:])
		unshared, n2 := binary.Uvarint(blk[off+n1:])
		vlen, n3 := binary.Uvarint(blk[off+n1+n2:])
		off += n1 + n2 + n3 + int(unshared) + int(vlen)
	}
	blk[off] = 0x7f // shares 127 bytes with a 17-byte key
	crc := crc32.New(castagnoli)
	crc.Write(blk)
	crc.Write(img[h.Offset+h.Size : h.Offset+h.Size+1])
	binary.LittleEndian.PutUint32(img[h.Offset+h.Size+1:], crc.Sum32())

	bad, err := Open(tl, &memFile{b: img}, opts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := before + 2
	for name, it := range map[string]*Iter{"scan": bad.NewIterator(tl), "compaction scan": newChargedScan(bad, tl)} {
		got := 0
		for it.First(); it.Valid(); it.Next() {
			if wantK := fmt.Sprintf("key%05d", got); string(keys.UserKey(it.Key())) != wantK {
				t.Fatalf("%s: entry %d is %s, want %s", name, got, keys.String(it.Key()), wantK)
			}
			got++
		}
		if got != want || it.Err() == nil {
			t.Errorf("%s: %d entries then error %v; want %d entries then an error", name, got, it.Err(), want)
		}
	}
	it := bad.NewIterator(tl)
	it.Seek(ik(fmt.Sprintf("key%05d", want+1), keys.MaxSeqNum))
	if it.Valid() || it.Err() == nil {
		t.Errorf("Seek past the malformed entry: valid %v, error %v; want it stopped with an error", it.Valid(), it.Err())
	}
}

// TestTableLookupAllocations pins a point lookup served from a cached
// raw block: a cursor the caller keeps (Reset, Seek) allocates nothing,
// and Get allocates only the key it returns.
func TestTableLookupAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	fs, tl := newFS()
	f := buildTable(t, fs, tl, "t.ldb", DefaultOptions(), 2000)
	r, err := Open(tl, f, DefaultOptions(), 1, cache.New(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	seek := keys.MakeInternalKey(nil, []byte("key001234"), keys.MaxSeqNum, keys.KindSeek)
	var it Iter
	lookup := func() {
		it.Reset(r, tl)
		it.Seek(seek)
		if !it.Valid() || string(it.Value()) != "value-1234" {
			t.Fatalf("lookup: valid %v, value %q, error %v", it.Valid(), it.Value(), it.Err())
		}
	}
	lookup() // admits the block
	if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
		t.Errorf("a kept cursor's lookup makes %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { r.Get(tl, seek) }); allocs != 1 {
		t.Errorf("Get makes %v allocations, want 1 (the key it returns)", allocs)
	}
}

// TestCompactionScanAllocations pins a compaction scan of a compressed
// table at no allocation per data block once the buffer pool is warm,
// through every loader: the page-cache view and, with the file's view
// hidden, the pooled copy — both charged as they load — and the
// peeking scan of a compaction's merge stage.
func TestCompactionScanAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	fs, tl := newFS()
	opts := DefaultOptions()
	opts.Compression = FastCompression
	f := buildTable(t, fs, tl, "c.ldb", opts, 6000)
	for _, c := range []struct {
		name string
		file vfs.File
		peek bool
	}{{"view", f, false}, {"pooled copy", struct{ vfs.File }{f}, false}, {"peek", f, true}} {
		name := c.name
		r, err := Open(tl, c.file, opts, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if blocks := len(dataHandles(t, r)); blocks < 20 {
			t.Fatalf("%d data blocks; the test needs more", blocks)
		}
		var log ScanLog = chargedScan{r, tl}
		if c.peek {
			log = peekedScan{}
		}
		it := r.NewScanIterator(log, c.peek)
		scan := func() {
			it.Reset(r, nil)
			it.log, it.peek = log, c.peek
			n := 0
			for it.First(); it.Valid(); it.Next() {
				n++
			}
			if n != 6000 || it.Err() != nil {
				t.Fatalf("%s: scanned %d entries, error %v", name, n, it.Err())
			}
		}
		scan()
		if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
			t.Errorf("%s: a compaction scan makes %v allocations, want 0", name, allocs)
		}
	}
}

// TestLazyBlockFirstHit admits a compressed block to the hot tier on a
// miss — as its payload, charged one decode — then lets several readers
// hit it at once. Every reader must read the right bytes out of one
// decoded image (the entry is swapped once), and neither the first hit
// nor any later one may advance the virtual clock.
func TestLazyBlockFirstHit(t *testing.T) {
	fs, tl := newFS()
	opts := DefaultOptions()
	opts.Compression = FastCompression
	f := buildTable(t, fs, tl, "l.ldb", opts, 2000)
	hot := cache.New(8 << 20)
	r, err := Open(tl, f, opts, 1, hot)
	if err != nil {
		t.Fatal(err)
	}
	seek := func(i int) []byte {
		return keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), keys.MaxSeqNum, keys.KindSeek)
	}
	miss := tl.Now()
	if _, v, found, err := r.Get(tl, seek(700)); !found || err != nil || string(v) != "value-700" {
		t.Fatalf("miss: %q, %v, %v", v, found, err)
	}
	if tl.Now() == miss {
		t.Fatal("the miss charged no device read or decode")
	}
	var lb *lazyBlock
	for _, h := range dataHandles(t, r) {
		if v, ok := hot.Get(cache.Key{ID: 1, Off: h.Offset}); ok {
			lb = v.(*lazyBlock)
		}
	}
	if lb == nil {
		t.Fatal("the miss admitted no lazy entry to the hot tier")
	}

	const readers = 8
	var wg sync.WaitGroup
	addrs := make([]*byte, readers)
	start := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rtl := vclock.NewTimeline(0)
			var it Iter
			<-start
			for i := 700 + g; i >= 700; i-- {
				it.Reset(r, rtl)
				it.Seek(seek(i))
				if !it.Valid() || !bytes.Equal(it.Value(), []byte(fmt.Sprintf("value-%d", i))) {
					t.Errorf("reader %d: key %d read %q, error %v", g, i, it.Value(), it.Err())
					return
				}
			}
			addrs[g] = unsafe.SliceData(it.Value())
			if rtl.Now() != 0 {
				t.Errorf("reader %d: hits advanced the clock by %v", g, rtl.Now())
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, a := range addrs {
		if a != addrs[0] {
			t.Fatalf("readers 0 and %d read value-700 from different images: the entry was decoded twice", g)
		}
	}
	if hot.Len() != 1 {
		t.Fatalf("the hot tier holds %d blocks: the readers strayed from the admitted one", hot.Len())
	}
	if lb.payload != nil {
		t.Fatal("the hit entry still holds its payload")
	}
}

// TestReleasedIterLetsTableGo checks that the cursor Get leaves in its
// pool keeps nothing of the table it read: a closed store must be
// collectable at the next collection, not two later when the pool lets
// go of its cursors. (A cursor that kept its Reader kept the Reader's
// file, and through it the whole simulated filesystem of a finished
// benchmark rep, through the next rep.)
func TestReleasedIterLetsTableGo(t *testing.T) {
	fs, tl := newFS()
	f := buildTable(t, fs, tl, "g.ldb", DefaultOptions(), 500)
	r, err := Open(tl, f, DefaultOptions(), 1, cache.New(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := r.Get(tl, keys.MakeInternalKey(nil, []byte("key000123"), keys.MaxSeqNum, keys.KindSeek)); !found || err != nil {
		t.Fatalf("Get: found %v, error %v", found, err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(r, func(*Reader) { close(collected) })
	r = nil
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the table's Reader outlived a collection: a pooled cursor still holds it")
	}
}

// chargedScan is a compaction scan's log that makes every load's
// charged read and decode charge on tl as the scan loads the block: the
// order a compaction's commit stage replays them in.
type chargedScan struct {
	r  *Reader
	tl *vclock.Timeline
}

func (c chargedScan) Load(h Handle, _ Image) (Image, error) { return c.r.ReadImage(c.tl, h) }
func (c chargedScan) Loaded(n int, _ error)                 { c.r.ChargeDecode(c.tl, n) }

func newChargedScan(r *Reader, tl *vclock.Timeline) *Iter {
	return r.NewScanIterator(chargedScan{r, tl}, false)
}

// peekedScan is the log of a scan that peeks every block and charges
// nothing: it lets go of its share of each image at once.
type peekedScan struct{}

func (peekedScan) Load(_ Handle, im Image) (Image, error) {
	im.Release()
	return im, nil
}
func (peekedScan) Loaded(int, error) {}

// countingScan is chargedScan counting the blocks it loads.
type countingScan struct {
	chargedScan
	loads *int
}

func (c countingScan) Load(h Handle, im Image) (Image, error) {
	*c.loads++
	return c.chargedScan.Load(h, im)
}

// TestAdoptBlock scans a MaxCompression table, adopting every block it
// can and stepping past it: the full blocks of distinct values are
// adopted, each exactly as sealing its entries stores them; the block
// holding a deletion, the one holding two versions of a key and the
// short last one are not, nor is any block under another codec, a
// limit at its last key, or a larger block size. The entries the scan
// visits, with those of the blocks it adopted and stepped past, are
// the table's, in order.
func TestAdoptBlock(t *testing.T) {
	fs, tl := newFS()
	opts := DefaultOptions()
	opts.Compression = MaxCompression
	f, err := fs.Create(tl, "adopt.ldb")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, opts)
	const n = 600
	for i := 0; i < n; i++ {
		key, kind := fmt.Sprintf("key%06d", i), keys.KindValue
		if i == 100 {
			kind = keys.KindDelete
		}
		v := bytes.Repeat([]byte(key), 8)
		if err := b.Add(tl, keys.MakeInternalKey(nil, []byte(key), keys.SeqNum(n+i), kind), v); err != nil {
			t.Fatal(err)
		}
		if i == 300 {
			if err := b.Add(tl, keys.MakeInternalKey(nil, []byte(key), keys.SeqNum(i), keys.KindValue), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	r, err := Open(tl, f, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The table block by block, as a plain scan sees it.
	var blocks [][][2][]byte
	loads := 0
	it := r.NewScanIterator(countingScan{chargedScan{r, tl}, &loads}, false)
	for it.First(); it.Valid(); it.Next() {
		if len(blocks) < loads {
			blocks = append(blocks, nil)
		}
		blocks[loads-1] = append(blocks[loads-1], [2][]byte{append([]byte(nil), it.Key()...), append([]byte(nil), it.Value()...)})
	}
	it.Release()

	for _, o := range []Options{
		func() Options { o := opts; o.Compression = FastCompression; return o }(),
		func() Options { o := opts; o.BlockSize *= 2; return o }(),
	} {
		it := newChargedScan(r, tl)
		for it.First(); it.Valid(); it.Next() {
			if it.AdoptBlock(NewRawBlock(o), o, nil) {
				t.Fatalf("a block at %s adopted under codec %v, block size %d", keys.String(it.Key()), o.Compression, o.BlockSize)
			}
		}
		it.Release()
	}

	it = newChargedScan(r, tl)
	defer it.Release()
	var got [][]byte
	adopted := 0
	dst := NewRawBlock(opts)
	it.First()
	for i := 0; it.Valid(); i++ {
		if !it.AtBlockStart() {
			t.Fatalf("the scan is at %s, inside a block", keys.String(it.Key()))
		}
		blk := blocks[i]
		last := blk[len(blk)-1][0]
		if it.AdoptBlock(dst, opts, last) {
			t.Fatalf("block %d adopted below a limit at its own last key", i)
		}
		hasDelete, hasTwo := false, false
		for j, e := range blk {
			_, _, kind, _ := keys.ParseInternalKey(e[0])
			hasDelete = hasDelete || kind == keys.KindDelete
			hasTwo = hasTwo || j > 0 && bytes.Equal(keys.UserKey(e[0]), keys.UserKey(blk[j-1][0]))
		}
		want := !hasDelete && !hasTwo && i < len(blocks)-1
		if ok := it.AdoptBlock(dst, opts, nil); ok != want {
			t.Fatalf("block %d (delete %v, two versions %v, of %d) adopted %v", i, hasDelete, hasTwo, len(blocks), ok)
		} else if !ok {
			for range blk {
				got = append(got, append([]byte(nil), it.Key()...))
				it.Next()
			}
			continue
		}
		adopted++
		resealed := NewRawBlock(opts)
		for _, e := range blk {
			resealed.Add(e[0], e[1])
		}
		resealed.Seal()
		if !dst.Adopted() || dst.Entries() != len(blk) || !bytes.Equal(dst.Last(), last) || !bytes.Equal(dst.Stored(), resealed.Stored()) {
			t.Fatalf("block %d adopted as %d entries to %s, not as its entries seal", i, dst.Entries(), keys.String(dst.Last()))
		}
		for _, e := range blk {
			got = append(got, e[0])
		}
		it.SkipBlock()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if adopted < len(blocks)-4 {
		t.Fatalf("%d of %d blocks adopted", adopted, len(blocks))
	}
	var want [][]byte
	for _, blk := range blocks {
		for _, e := range blk {
			want = append(want, e[0])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("entry %d is %s, want %s", i, keys.String(got[i]), keys.String(want[i]))
		}
	}
}
