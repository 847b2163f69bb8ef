package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"noblsm/internal/cache"
	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

func newFS() (*ext4.FS, *vclock.Timeline) {
	return ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883())), vclock.NewTimeline(0)
}

func ik(k string, seq keys.SeqNum) []byte {
	return keys.MakeInternalKey(nil, []byte(k), seq, keys.KindValue)
}

func buildTable(t *testing.T, fs *ext4.FS, tl *vclock.Timeline, name string, opts Options, n int) vfs.File {
	t.Helper()
	f, err := fs.Create(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, opts)
	for i := 0; i < n; i++ {
		if err := b.Add(tl, ik(fmt.Sprintf("key%06d", i), keys.SeqNum(i+1)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	if b.Entries() != n {
		t.Fatalf("builder entries %d, want %d", b.Entries(), n)
	}
	return f
}

// checkScan walks it from the first entry and wants exactly the n
// entries buildTable wrote.
func checkScan(t *testing.T, it *Iter, n int) {
	t.Helper()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		wantK := fmt.Sprintf("key%06d", i)
		if string(keys.UserKey(it.Key())) != wantK || string(it.Value()) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("entry %d: %s=%q", i, keys.String(it.Key()), it.Value())
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d entries, want %d", i, n)
	}
}

func TestBuildAndScan(t *testing.T) {
	fs, tl := newFS()
	const n = 3000 // spans many data blocks at 4 KiB
	f := buildTable(t, fs, tl, "000007.ldb", DefaultOptions(), n)
	r, err := Open(tl, f, DefaultOptions(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, r.NewIterator(tl), n)
}

// TestCompactionScanDirtyBuffers scans a compressed table through both
// compaction loaders — the page-cache view and, through copyOnly, the
// pooled copy — out of a buffer pool filled with 0xFF: the codec is
// handed recycled buffers, longer than the block and never zeroed, and
// must not lean on what they hold.
func TestCompactionScanDirtyBuffers(t *testing.T) {
	fs, tl := newFS()
	const n = 3000
	raw := buildTable(t, fs, tl, "000008.ldb", DefaultOptions(), n)
	opts := DefaultOptions()
	opts.Compression = FastCompression
	f := buildTable(t, fs, tl, "000009.ldb", opts, n)
	if f.Size() > raw.Size()/2 {
		t.Fatalf("table is %d bytes, %d uncompressed: its blocks are not stored compressed", f.Size(), raw.Size())
	}
	for name, file := range map[string]vfs.File{"view": f, "pooled copy": copyOnly{f}} {
		r, err := Open(tl, file, opts, 9, nil)
		if err != nil {
			t.Fatal(name, err)
		}
		for i := 0; i < 64; i++ {
			putBlockBuf(&blockBuf{b: bytes.Repeat([]byte{0xFF}, 3*opts.BlockSize)})
		}
		checkScan(t, newChargedScan(r, tl), n)
	}
}

func TestSeekAcrossBlocks(t *testing.T) {
	fs, tl := newFS()
	const n = 2000
	f := buildTable(t, fs, tl, "t.ldb", DefaultOptions(), n)
	r, err := Open(tl, f, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator(tl)
	rnd := rand.New(rand.NewSource(5))
	for probe := 0; probe < 300; probe++ {
		i := rnd.Intn(n)
		target := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), keys.MaxSeqNum, keys.KindSeek)
		it.Seek(target)
		if !it.Valid() || string(keys.UserKey(it.Key())) != fmt.Sprintf("key%06d", i) {
			t.Fatalf("seek to key%06d failed", i)
		}
	}
	// Seek before first and past last.
	it.Seek(ik("a", keys.MaxSeqNum))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "key000000" {
		t.Fatal("seek before first broken")
	}
	it.Seek(ik("z", keys.MaxSeqNum))
	if it.Valid() {
		t.Fatal("seek past last is valid")
	}
}

func TestGet(t *testing.T) {
	fs, tl := newFS()
	f := buildTable(t, fs, tl, "t.ldb", DefaultOptions(), 500)
	r, err := Open(tl, f, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	seek := keys.MakeInternalKey(nil, []byte("key000123"), keys.MaxSeqNum, keys.KindSeek)
	gk, gv, found, err := r.Get(tl, seek)
	if err != nil || !found {
		t.Fatalf("Get: %v, found=%v", err, found)
	}
	if string(keys.UserKey(gk)) != "key000123" || string(gv) != "value-123" {
		t.Fatalf("Get = %s:%q", keys.String(gk), gv)
	}
}

func TestBloomFilterSkipsAbsentKeys(t *testing.T) {
	fs, tl := newFS()
	f := buildTable(t, fs, tl, "t.ldb", DefaultOptions(), 1000)
	r, err := Open(tl, f, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !r.MayContain([]byte(fmt.Sprintf("key%06d", i))) {
			t.Fatalf("false negative for key%06d", i)
		}
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		if !r.MayContain([]byte(fmt.Sprintf("absent%06d", i))) {
			miss++
		}
	}
	if miss < 900 {
		t.Fatalf("bloom filter rejected only %d/1000 absent keys", miss)
	}
}

func TestNoBloomOption(t *testing.T) {
	fs, tl := newFS()
	opts := DefaultOptions()
	opts.BloomBitsPerKey = 0
	f := buildTable(t, fs, tl, "t.ldb", opts, 100)
	r, err := Open(tl, f, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MayContain([]byte("anything")) {
		t.Fatal("filterless table rejected a key")
	}
}

func TestBlockCacheHits(t *testing.T) {
	fs, tl := newFS()
	f := buildTable(t, fs, tl, "t.ldb", DefaultOptions(), 2000)
	bc := cache.New(8 << 20)
	r, err := Open(tl, f, DefaultOptions(), 42, bc)
	if err != nil {
		t.Fatal(err)
	}
	seek := keys.MakeInternalKey(nil, []byte("key000777"), keys.MaxSeqNum, keys.KindSeek)
	r.Get(tl, seek)
	_, misses1 := bc.Stats()
	r.Get(tl, seek)
	hits2, misses2 := bc.Stats()
	if misses2 != misses1 {
		t.Fatalf("second Get missed the cache (%d -> %d misses)", misses1, misses2)
	}
	if hits2 == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestSmallestLargest(t *testing.T) {
	fs, tl := newFS()
	f, _ := fs.Create(tl, "t.ldb")
	b := NewBuilder(f, DefaultOptions())
	b.Add(tl, ik("aaa", 9), []byte("1"))
	b.Add(tl, ik("mmm", 8), []byte("2"))
	b.Add(tl, ik("zzz", 7), []byte("3"))
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	if string(keys.UserKey(b.Smallest())) != "aaa" || string(keys.UserKey(b.Largest())) != "zzz" {
		t.Fatalf("bounds: %s .. %s", keys.String(b.Smallest()), keys.String(b.Largest()))
	}
	if b.FileSize() != f.Size() {
		t.Fatal("FileSize disagrees with file")
	}
}

func TestOpenRejectsTruncatedTable(t *testing.T) {
	fs, tl := newFS()
	f := buildTable(t, fs, tl, "t.ldb", DefaultOptions(), 100)
	full, _ := fs.ReadFile(tl, "t.ldb")
	// A table truncated mid-way (the post-crash state of an unsynced,
	// uncommitted SSTable) must fail to open.
	fs.WriteFile(tl, "torn.ldb", full[:len(full)/2])
	tf, _ := fs.Open(tl, "torn.ldb")
	if _, err := Open(tl, tf, DefaultOptions(), 2, nil); err == nil {
		t.Fatal("torn table opened successfully")
	}
	_ = f
}

func TestOpenRejectsBitRot(t *testing.T) {
	fs, tl := newFS()
	buildTable(t, fs, tl, "t.ldb", DefaultOptions(), 100)
	img, _ := fs.ReadFile(tl, "t.ldb")
	rot := append([]byte(nil), img...)
	rot[10] ^= 0x40 // flip a bit inside the first data block
	fs.WriteFile(tl, "rot.ldb", rot)
	rf, _ := fs.Open(tl, "rot.ldb")
	r, err := Open(tl, rf, DefaultOptions(), 3, nil)
	if err != nil {
		return // index/footer read already detected it
	}
	it := r.NewIterator(tl)
	for it.First(); it.Valid(); it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("bit rot in a data block went undetected by CRC")
	}
}

func TestEmptyTable(t *testing.T) {
	fs, tl := newFS()
	f, _ := fs.Create(tl, "empty.ldb")
	b := NewBuilder(f, DefaultOptions())
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	r, err := Open(tl, f, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator(tl)
	it.First()
	if it.Valid() {
		t.Fatal("empty table iterates")
	}
}

func TestLargeValues(t *testing.T) {
	fs, tl := newFS()
	f, _ := fs.Create(tl, "big.ldb")
	b := NewBuilder(f, DefaultOptions())
	big := bytes.Repeat([]byte("x"), 64*1024) // larger than BlockSize
	for i := 0; i < 10; i++ {
		b.Add(tl, ik(fmt.Sprintf("k%02d", i), keys.SeqNum(i+1)), big)
	}
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	r, err := Open(tl, f, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator(tl)
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Value(), big) {
			t.Fatal("large value corrupted")
		}
		n++
	}
	if n != 10 {
		t.Fatalf("scanned %d large entries", n)
	}
}

func TestTombstonesSurviveRoundTrip(t *testing.T) {
	fs, tl := newFS()
	f, _ := fs.Create(tl, "t.ldb")
	b := NewBuilder(f, DefaultOptions())
	b.Add(tl, keys.MakeInternalKey(nil, []byte("dead"), 5, keys.KindDelete), nil)
	b.Add(tl, keys.MakeInternalKey(nil, []byte("live"), 4, keys.KindValue), []byte("v"))
	if err := b.Finish(tl); err != nil {
		t.Fatal(err)
	}
	r, _ := Open(tl, f, DefaultOptions(), 1, nil)
	it := r.NewIterator(tl)
	it.First()
	_, _, kind, _ := keys.ParseInternalKey(it.Key())
	if kind != keys.KindDelete {
		t.Fatalf("first entry kind %v, want tombstone", kind)
	}
}

func BenchmarkTableGet(b *testing.B) {
	fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "bench.ldb")
	bld := NewBuilder(f, DefaultOptions())
	for i := 0; i < 10000; i++ {
		bld.Add(tl, ik(fmt.Sprintf("key%08d", i), keys.SeqNum(i+1)), []byte("value"))
	}
	bld.Finish(tl)
	bc := cache.New(64 << 20)
	r, err := Open(tl, f, DefaultOptions(), 1, bc)
	if err != nil {
		b.Fatal(err)
	}
	seeks := make([][]byte, 10000)
	for i := range seeks {
		seeks[i] = keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i)), keys.MaxSeqNum, keys.KindSeek)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get(tl, seeks[i%len(seeks)])
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any sorted set of unique keys with arbitrary values
	// survives a build → open → scan round trip exactly, across block
	// sizes that force single- and multi-block tables.
	fs, tl := newFS()
	fileNum := 0
	f := func(raw map[string]string, blockSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var ks []string
		for k := range raw {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		opts := DefaultOptions()
		opts.BlockSize = []int{256, 1024, 4096}[int(blockSel)%3]
		fileNum++
		name := fmt.Sprintf("prop-%05d.ldb", fileNum)
		fh, err := fs.Create(tl, name)
		if err != nil {
			return false
		}
		b := NewBuilder(fh, opts)
		for i, k := range ks {
			if err := b.Add(tl, ik(k, keys.SeqNum(i+1)), []byte(raw[k])); err != nil {
				return false
			}
		}
		if err := b.Finish(tl); err != nil {
			return false
		}
		r, err := Open(tl, fh, opts, uint64(fileNum), nil)
		if err != nil {
			return false
		}
		it := r.NewIterator(tl)
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if string(keys.UserKey(it.Key())) != ks[i] || string(it.Value()) != raw[ks[i]] {
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(ks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
