package harness

import (
	"errors"
	"math/rand"
	"testing"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/policy"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// Two performance gates, on the virtual clock so they are exact for a
// seed: the cost of a checkpoint + backup loop on the write path, and
// what the read-path features buy over the stock read path.

// ckptFillMicrosPerOp fills a NobLSM store with random 1 KB Puts and
// returns virtual µs/op. every > 0 adds what a backup schedule does —
// a checkpoint, its release and an incremental backup — every that
// many operations.
func ckptFillMicrosPerOp(t *testing.T, ops, every int64) (usPerOp float64, checkpoints int) {
	t.Helper()
	tl := vclock.NewTimeline(0)
	st, err := NewStore(tl, policy.NobLSM, ScaledOptions(ops, 1024, PaperTable64MB))
	if err != nil {
		t.Fatal(err)
	}
	defer st.DB.Close(tl)
	gen := dbbench.NewGenerator(dbbench.FillRandom, ops, testSeed)
	var buf []byte
	start := tl.Now()
	for i := int64(0); i < ops; i++ {
		k, _ := gen.Next()
		buf = dbbench.Value(buf, k, 0, 1024)
		if err := st.DB.Put(tl, dbbench.Key(k), buf); err != nil {
			t.Fatal(err)
		}
		if every == 0 || i == 0 || i%every != 0 {
			continue
		}
		info, err := st.DB.Checkpoint(tl, "gate-ckpt")
		if err != nil {
			t.Fatalf("checkpoint at op %d: %v", i, err)
		}
		if err := st.DB.ReleaseCheckpoint(tl, info.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := st.DB.Backup(tl, "gate-backup"); err != nil {
			t.Fatalf("backup at op %d: %v", i, err)
		}
		checkpoints++
	}
	return tl.Now().Sub(start).Microseconds() / float64(ops), checkpoints
}

// TestCheckpointLoopOverhead: checkpoints are hard links plus a
// manifest snapshot and must not stall writers — a checkpoint and an
// incremental backup every eighth of a fill cost it at most 5 %.
func TestCheckpointLoopOverhead(t *testing.T) {
	const ops = 20_000
	plain, _ := ckptFillMicrosPerOp(t, ops, 0)
	loop, n := ckptFillMicrosPerOp(t, ops, ops/8)
	overhead := (loop - plain) / plain * 100
	t.Logf("plain %.3f µs/op, with %d checkpoints %.3f µs/op: %+.2f %%", plain, n, loop, overhead)
	if n != 7 {
		t.Fatalf("took %d checkpoints, want 7", n)
	}
	if overhead > 5 {
		t.Fatalf("checkpoint loop costs the fill %.2f %%, want <= 5 %%", overhead)
	}
}

// readGateOptions is the geometry both sides of TestReadPathFeatures
// share: 8 KiB blocks, because compression works per block. tuned
// switches the read-path features on: fast compression with the harder
// codec from L2 down (written once per major compaction, read many
// times), a compressed block tier, and more filter bits where every
// lookup probes than at the bottom, where most keys live.
func readGateOptions(ops int64, tuned bool) engine.Options {
	o := ScaledOptions(ops, 1024, PaperTable64MB)
	o.BlockSize = 8192
	if !tuned {
		return o
	}
	o.Compression = sstable.FastCompression
	o.CompressionByLevel = make([]sstable.Compression, version.NumLevels)
	for l := range o.CompressionByLevel {
		o.CompressionByLevel[l] = sstable.FastCompression
		if l >= 2 {
			o.CompressionByLevel[l] = sstable.MaxCompression
		}
	}
	o.CompressedBlockCacheBytes = 2 * o.BlockCacheBytes
	o.BloomBitsPerKeyByLevel = []int{14, 12, 10, 10, 8, 8, 6}[:version.NumLevels]
	return o
}

// readGateCosts are virtual µs per key of the four measured phases.
type readGateCosts struct{ coldGet, coldScan, warmGet, warmMultiGet float64 }

// measureReadPath fills a store with ops compressible 1 KB values and
// measures random Gets and a full scan, each straight after a power
// cut that loses nothing but empties the page cache, then warm Gets
// against 16-key MultiGets over the same key sequence.
func measureReadPath(t *testing.T, ops int64, tuned bool) readGateCosts {
	t.Helper()
	const batch = 16
	reads := ops / 20 / batch * batch
	tl := vclock.NewTimeline(0)
	st, err := NewStore(tl, policy.NobLSM, readGateOptions(ops, tuned))
	if err != nil {
		t.Fatal(err)
	}
	db := st.DB
	defer func() { db.Close(tl) }()
	check := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, engine.ErrNotFound) {
			t.Fatal(err)
		}
	}
	micros := func(run func()) float64 {
		start := tl.Now()
		run()
		return tl.Now().Sub(start).Microseconds()
	}
	gets := func(seed int64) {
		rnd := rand.New(rand.NewSource(seed))
		for i := int64(0); i < reads; i++ {
			_, err := db.Get(tl, dbbench.Key(rnd.Int63n(ops)))
			check(err)
		}
	}
	coldReopen := func() {
		db.Close(tl)
		st.FS.ForceCommit(tl)
		st.FS.Crash(tl.Now())
		if db, err = engine.Open(tl, st.FS, st.Opts); err != nil {
			t.Fatal(err)
		}
	}

	gen := dbbench.NewGenerator(dbbench.FillRandom, ops, testSeed)
	var buf []byte
	for k, done := gen.Next(); !done; k, done = gen.Next() {
		buf = dbbench.CompressibleValue(buf, k, 0, 1024)
		check(db.Put(tl, dbbench.Key(k), buf))
	}
	db.WaitBackground(tl)

	var c readGateCosts
	coldReopen()
	c.coldGet = micros(func() { gets(testSeed + 1) }) / float64(reads)

	coldReopen()
	var scanned int64
	scan := micros(func() {
		it, err := db.NewIterator(tl)
		check(err)
		for it.First(); it.Valid(); it.Next() {
			scanned++
		}
		check(it.Err())
		check(it.Close())
	})
	if scanned == 0 {
		t.Fatal("cold scan found no keys")
	}
	c.coldScan = scan / float64(scanned)

	// Batching amortizes the fixed per-request cost, the term left once
	// data is resident; a throwaway pass faults every page in first.
	coldReopen()
	gets(testSeed + 2)
	db.WaitBackground(tl)
	c.warmGet = micros(func() { gets(testSeed + 2) }) / float64(reads)
	c.warmMultiGet = micros(func() {
		rnd := rand.New(rand.NewSource(testSeed + 2))
		keys := make([][]byte, batch)
		for i := int64(0); i < reads; i += batch {
			for j := range keys {
				keys[j] = dbbench.Key(rnd.Int63n(ops))
			}
			_, errs := db.MultiGet(tl, keys)
			for _, err := range errs {
				check(err)
			}
		}
	}) / float64(reads)
	return c
}

// TestReadPathFeatures: over the same fill, compression + compressed
// cache + per-level bloom sizing make cold random reads at least 1.5x
// cheaper than the stock read path, and compression alone makes a cold
// full scan at least 1.3x cheaper: it reads fewer bytes from the
// device. A warm 16-key MultiGet costs at most half of 16 Gets.
func TestReadPathFeatures(t *testing.T) {
	const ops = 10_000
	base, tuned := measureReadPath(t, ops, false), measureReadPath(t, ops, true)
	coldGet, coldScan := base.coldGet/tuned.coldGet, base.coldScan/tuned.coldScan
	multiGet := tuned.warmGet / tuned.warmMultiGet
	t.Logf("cold readrandom %.2fx, cold scan %.2fx, multiget16 vs get %.2fx", coldGet, coldScan, multiGet)
	if coldGet < 1.5 {
		t.Errorf("cold readrandom: tuned is %.2fx the stock read path, want >= 1.5x", coldGet)
	}
	if coldScan < 1.3 {
		t.Errorf("cold full scan: tuned is %.2fx the stock read path, want >= 1.3x", coldScan)
	}
	if multiGet < 2 {
		t.Errorf("warm multiget16 is %.2fx cheaper per key than get, want >= 2x", multiGet)
	}
}
