package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
)

// raceEnabled reports a -race build. sync.Pool drops a share of what it
// is handed back under the race detector, so the pooled read path
// allocates there and the allocation gates below skip.
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

// tieredStore opens a store with per-block compression and both block
// tiers at the given sizes, and loads n keys in a seeded order. Every
// key's value is healValue(key), which compresses.
func tieredStore(t testing.TB, hot, warm int64, n int) (*DB, *vclock.Timeline) {
	t.Helper()
	opts := smallOpts(SyncNobLSM)
	opts.Compression = sstable.FastCompression
	opts.BlockCacheBytes = hot
	opts.CompressedBlockCacheBytes = warm
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ext4.New(smallFSConfig(), smallDevice()), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rand.New(rand.NewSource(26)).Perm(n) {
		key := fmt.Sprintf("key%05d", i)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tl
}

// rawStore opens an uncompressed store, loads n keys and compacts them
// into tables.
func rawStore(t testing.TB, n int) (*DB, *vclock.Timeline) {
	t.Helper()
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ext4.New(smallFSConfig(), smallDevice()), smallOpts(SyncAll))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%05d", i)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	return db, tl
}

// TestHotTierGolden runs a scripted mix of Gets, MultiGets and scans —
// repeats, so entries are hit as well as admitted — over a compressed
// store whose two block tiers are a few blocks each, then pins every
// hit, miss and fill counter of the hot, warm and table tiers and the
// virtual clock. Every block a scan reads passes the hot tier, then the
// warm tier, then the device, exactly as a Get's does, so a hot miss
// is a fill and a warm miss is a fill. A changed value means the tiers
// now see different traffic.
func TestHotTierGolden(t *testing.T) {
	const n = 3000
	db, tl := tieredStore(t, 24<<10, 16<<10, n)
	rng := rand.New(rand.NewSource(27))
	var sum int
	for round := 0; round < 6; round++ {
		for i := 0; i < 400; i++ {
			k := rng.Intn(n)
			if i%3 == 0 {
				k = rng.Intn(40) // a hot set, so some blocks are hit again
			}
			key := fmt.Sprintf("key%05d", k)
			v, err := db.Get(tl, []byte(key))
			if err != nil || !bytes.Equal(v, healValue(key)) {
				t.Fatalf("Get(%s): %q, %v", key, v, err)
			}
			sum += len(v)
		}
		batch := make([][]byte, 16)
		for i := range batch {
			batch[i] = []byte(fmt.Sprintf("key%05d", rng.Intn(n)))
		}
		vals, errs := db.MultiGet(tl, batch)
		for i, key := range batch {
			if errs[i] != nil || !bytes.Equal(vals[i], healValue(string(key))) {
				t.Fatalf("MultiGet(%s): %v", key, errs[i])
			}
		}
		it, err := db.NewIterator(tl)
		if err != nil {
			t.Fatal(err)
		}
		start := []byte(fmt.Sprintf("key%05d", rng.Intn(n)))
		steps := 0
		for it.Seek(start); it.Valid() && steps < 300; it.Next() {
			if !bytes.Equal(it.Value(), healValue(string(it.Key()))) {
				t.Fatalf("scan: wrong value for %s", it.Key())
			}
			steps++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int64{"virtual ns": int64(tl.Now()), "value bytes": int64(sum)}
	for _, tier := range []string{"block", "cblock", "table"} {
		for _, c := range []string{"hits", "misses", "fills"} {
			name := "cache." + tier + "." + c
			got[name] = db.reg.Counter(name).Value()
		}
	}
	want := map[string]int64{
		"virtual ns":          72340868,
		"value bytes":         1228800,
		"cache.block.hits":    245,
		"cache.block.misses":  2470,
		"cache.block.fills":   2470,
		"cache.cblock.hits":   795,
		"cache.cblock.misses": 1675,
		"cache.cblock.fills":  1675,
		"cache.table.hits":    2854,
		"cache.table.misses":  204,
		"cache.table.fills":   102,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
	if t.Failed() {
		t.Logf("got %#v", got)
	}
}

// TestGetAllocations pins what a Get allocates once its table is open
// and its block cached: the value it returns, and nothing else — not
// the seek key, not a table cursor, not a block.
func TestGetAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	db, tl := rawStore(t, 2000)
	key := []byte("key01234")
	if v, err := db.Get(tl, key); err != nil || !bytes.Equal(v, healValue(string(key))) {
		t.Fatalf("Get: %q, %v", v, err)
	}
	if allocs := testing.AllocsPerRun(200, func() { db.Get(tl, key) }); allocs != 1 {
		t.Fatalf("a Get served from a cached block makes %v allocations, want 1 (the value)", allocs)
	}
}

// TestMultiGetAllocations pins what a 16-key MultiGet served from
// cached blocks allocates: its value and error slices, its keys' reads
// and their sorted order, the sort's two, and the 16 values — nothing
// per table or level it probes.
func TestMultiGetAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	db, tl := rawStore(t, 2000)
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("key%05d", i*977%2000))
	}
	vals, errs := db.MultiGet(tl, batch)
	for i, key := range batch {
		if errs[i] != nil || !bytes.Equal(vals[i], healValue(string(key))) {
			t.Fatalf("MultiGet(%s): %q, %v", key, vals[i], errs[i])
		}
	}
	allocs := testing.AllocsPerRun(200, func() { db.MultiGet(tl, batch) })
	if allocs != 16+6 {
		t.Fatalf("a 16-key MultiGet served from cached blocks makes %v allocations, want %d (the values and 6 for the batch)", allocs, 16+6)
	}
}

// TestColdGetAllocations pins a miss through both block tiers on a
// compressed store: the decoded block lands in a pooled buffer the
// lookup gives back, so a cold Get allocates the payload it read (which
// the warm tier keeps) and the value — far less than the decoded block
// it used to allocate on every miss.
func TestColdGetAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	// Tiers of one byte keep nothing: every Get misses both.
	db, tl := tieredStore(t, 1, 1, 3000)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	getAll := func() {
		for i := 0; i < 3000; i += 7 {
			key := fmt.Sprintf("key%05d", i)
			if v, err := db.Get(tl, []byte(key)); err != nil || !bytes.Equal(v, healValue(key)) {
				t.Fatalf("Get(%s): %v", key, err)
			}
		}
	}
	getAll() // opens every table
	misses := db.reg.Counter("cache.block.misses").Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	getAll()
	runtime.ReadMemStats(&after)
	gets := int64((3000 + 6) / 7)
	if db.reg.Counter("cache.block.misses").Value()-misses != gets {
		t.Fatal("a Get hit the hot tier: the test no longer measures misses")
	}
	perGet := int64(after.TotalAlloc-before.TotalAlloc) / gets
	if blockSize := int64(db.opts.BlockSize); perGet >= blockSize/2 {
		t.Fatalf("a cold Get allocates %d bytes, want under half a %d-byte block", perGet, blockSize)
	}
}

// TestPointDecodeShare checks the doctor's count of what point reads
// decode and probe: a store whose tiers keep nothing prints no line
// before its first Get, then, after Gets that each miss both tiers, the
// share of the missed blocks' declared bytes they decoded, strictly
// between none and all of them — a read stops at its entry — the files
// examined per Get and the bloom false positives. The store is
// compacted into one level, so a Get of a present key probes the one
// table holding it, which is no false positive, and a Get of an absent
// key probes at most one table, which is one when its filter passes.
func TestPointDecodeShare(t *testing.T) {
	db, tl := tieredStore(t, 1, 1, 3000)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	if doc, _ := db.Property("noblsm.doctor"); strings.Contains(doc, "point reads decoded") {
		t.Fatal("the doctor prints a decoded share before any Get")
	}
	gets := int64(0)
	for i := 0; i < 3000; i += 7 {
		if _, err := db.Get(tl, []byte(fmt.Sprintf("key%05d", i))); err != nil {
			t.Fatal(err)
		}
		gets++
	}
	fp := db.reg.Counter("engine.get_bloom_false_positives")
	if fp.Value() != 0 {
		t.Fatalf("Gets of present keys counted %d bloom false positives", fp.Value())
	}
	decoded := db.reg.Counter("engine.get_decoded_bytes").Value()
	declared := db.reg.Counter("engine.get_declared_bytes").Value()
	if decoded <= 0 || decoded >= declared {
		t.Fatalf("point reads decoded %d of %d bytes: want some, not all", decoded, declared)
	}
	for i := 0; i < 3000; i++ {
		if _, err := db.Get(tl, []byte(fmt.Sprintf("key%05d+", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of an absent key: %v", err)
		}
		gets++
	}
	// At 10 bits a key the filter passes about 1 % of absent keys.
	if n := fp.Value(); n < 5 || n > 100 {
		t.Fatalf("3000 Gets of absent keys counted %d bloom false positives, want about 30", n)
	}
	decoded = db.reg.Counter("engine.get_decoded_bytes").Value()
	declared = db.reg.Counter("engine.get_declared_bytes").Value()
	want := fmt.Sprintf("point reads decoded %.1f %% of the blocks they missed (%d of %d bytes); %.2f files examined per Get, %d bloom false positives\n",
		100*float64(decoded)/float64(declared), decoded, declared,
		float64(db.reg.Counter("engine.get_files_examined").Value())/float64(gets), fp.Value())
	if doc, _ := db.Property("noblsm.doctor"); !strings.Contains(doc, want) {
		t.Fatalf("the doctor report lacks %q:\n%s", want, doc)
	}
}

// TestSnapshotMissIsNoFalsePositive reads, at a snapshot, keys written
// after it: each table holding one passes its filter and the seek lands
// past the key's versions, but the filter was right, so no bloom false
// positive is counted — by a Get or by a MultiGet at the snapshot.
func TestSnapshotMissIsNoFalsePositive(t *testing.T) {
	db, tl := tieredStore(t, 1, 1, 3000)
	snap := db.visibleSeq.Load()
	var later [][]byte
	for i := 0; i < 3000; i += 7 {
		key := []byte(fmt.Sprintf("key%05d+", i))
		if err := db.Put(tl, key, healValue(string(key))); err != nil {
			t.Fatal(err)
		}
		later = append(later, key)
	}
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	probes := db.reg.Counter("engine.get_files_examined").Value()
	for _, key := range later {
		if _, err := db.get(tl, key, snap); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) at a snapshot before it: %v", key, err)
		}
	}
	_, errs := db.MultiGetAt(tl, later, snap)
	for _, err := range errs {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("MultiGet at a snapshot before its keys: %v", err)
		}
	}
	if db.reg.Counter("engine.get_files_examined").Value()-probes < int64(2*len(later)) {
		t.Fatal("a read skipped the tables holding its key: the test no longer probes them")
	}
	if n := db.reg.Counter("engine.get_bloom_false_positives").Value(); n != 0 {
		t.Fatalf("reads at a snapshot of keys written after it counted %d bloom false positives", n)
	}
}

// BenchmarkGet is a Get's host cost through the engine (ns, B and
// allocs per Get): warm-raw serves uncompressed blocks from the hot
// tier; cold-compressed misses both tiers of a compressed store on
// every Get, so it reads, verifies and decodes a block each time.
func BenchmarkGet(b *testing.B) {
	b.Run("warm-raw", func(b *testing.B) {
		db, tl := rawStore(b, 2000)
		benchGets(b, db, tl, 2000)
	})
	b.Run("cold-compressed", func(b *testing.B) {
		db, tl := tieredStore(b, 1, 1, 3000)
		if err := db.CompactRange(tl, nil, nil); err != nil {
			b.Fatal(err)
		}
		benchGets(b, db, tl, 3000)
	})
}

// benchGets times Gets over n loaded keys, after one untimed pass that
// opens every table and warms whatever the tiers keep.
func benchGets(b *testing.B, db *DB, tl *vclock.Timeline, n int) {
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("key%05d", i))
		if _, err := db.Get(tl, ks[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(tl, ks[(i*7919)%n]); err != nil {
			b.Fatal(err)
		}
	}
}
