package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// TestSelfHealingReadCompressedBlock is the compressed twin of
// TestSelfHealingRead: tables are built with the per-block codec and
// served through the two-tier cache, then one compressed data block
// takes at-rest bit rot. The CRC covers the stored (compressed)
// payload, so the flip must be caught before any decode runs, the
// read healed from the retained shadow predecessors, the table
// quarantined — and no reader may ever see a corrupt value.
func TestSelfHealingReadCompressedBlock(t *testing.T) {
	opts := smallOpts(SyncNobLSM)
	opts.PollInterval = vclock.Duration(1) << 50 // keep predecessors retained
	opts.Compression = sstable.FastCompression
	opts.CompressedBlockCacheBytes = 64 << 10
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(4000)
	var written []string
	var candidate uint64
	var candMeta *version.FileMeta
	for _, i := range perm {
		key := fmt.Sprintf("key%05d", i)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
		written = append(written, key)
		if len(written)%25 == 0 && len(written) > 200 {
			if cands := db.HealableSuccessors(); len(cands) > 0 {
				candidate = cands[0]
				candMeta, _ = liveTable(db, candidate)
			}
			if candidate != 0 {
				break
			}
		}
	}
	if candidate == 0 {
		t.Fatal("no healable successor after workload; grow the write count")
	}

	// healValue repeats its key, so every data block compresses; a
	// flip a third of the way in lands inside a compressed payload.
	if err := fs.CorruptAt(TableName(candidate), candMeta.Size/3); err != nil {
		t.Fatal(err)
	}
	db.tcache.evict(tl, candidate)

	for _, key := range written {
		v, err := db.Get(tl, []byte(key))
		if err != nil {
			t.Fatalf("Get(%s) after corruption: %v", key, err)
		}
		if !bytes.Equal(v, healValue(key)) {
			t.Fatalf("Get(%s) returned a wrong value through the corrupt block", key)
		}
	}

	if got := db.m.readsHealed.Value(); got < 1 {
		t.Fatalf("reads healed = %d, want >= 1", got)
	}
	if got := db.m.tablesQuarantined.Value(); got < 1 {
		t.Fatalf("tables quarantined = %d, want >= 1", got)
	}
	if !fs.Exists(tl, TableName(candidate)+".corrupt") {
		t.Fatal("corrupt successor not quarantined under .corrupt")
	}

	// Scan end to end: the iterator must serve every key from intact
	// tables only.
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Value(), healValue(string(it.Key()))) {
			t.Fatalf("scan: wrong value for %s", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(written) {
		t.Fatalf("scan found %d keys, want %d", n, len(written))
	}
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
}

// TestMultiGetMatchesGet pins MultiGet to the per-key read path under
// concurrent writers: for any sequence number, MultiGetAt over a batch
// must return exactly what N independent snapshot Gets at the same
// sequence return — same values, same misses — no matter how the batch
// mixes live, deleted and never-written keys. Runs compressed so the
// batched probes exercise the two-tier cache.
func TestMultiGetMatchesGet(t *testing.T) {
	opts := smallOpts(SyncAll)
	opts.Compression = sstable.FastCompression
	opts.CompressedBlockCacheBytes = 64 << 10
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)

	const (
		writers       = 2
		opsPerWriter  = 1200
		keysPerWriter = 200
	)
	key := func(w, slot int) []byte {
		return []byte(fmt.Sprintf("w%02d-%06d", w, slot))
	}
	var writersDone atomic.Bool
	var writerWG sync.WaitGroup
	werrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			for i := 0; i < opsPerWriter; i++ {
				k := key(w, i%keysPerWriter)
				if i%37 == 36 {
					if err := db.Delete(ctl, k); err != nil {
						werrs <- err
						return
					}
					continue
				}
				v := append(append([]byte(nil), k...), fmt.Sprintf("#%06d", i)...)
				if err := db.Put(ctl, k, v); err != nil {
					werrs <- err
					return
				}
			}
		}(w)
	}

	check := func(ctl *vclock.Timeline, rng *rand.Rand) error {
		// Pin one read point for both paths — through a registered
		// snapshot, not a bare sequence load: compactions drop
		// superseded versions nothing protects, so two reads at an
		// unregistered sequence can straddle a compaction and
		// legitimately disagree.
		snap := db.GetSnapshot()
		defer db.ReleaseSnapshot(snap)
		seq := snap.seq
		batch := make([][]byte, 16)
		for j := range batch {
			switch rng.Intn(8) {
			case 0: // never written
				batch[j] = []byte(fmt.Sprintf("missing-%04d", rng.Intn(1000)))
			case 1: // duplicate inside the batch
				batch[j] = batch[rng.Intn(j+1)]
			default:
				batch[j] = key(rng.Intn(writers), rng.Intn(keysPerWriter))
			}
		}
		vals, errs := db.MultiGetAt(ctl, batch, seq)
		for j, k := range batch {
			want, wantErr := db.get(ctl, k, seq)
			if (errs[j] == nil) != (wantErr == nil) || (wantErr != nil && errs[j] != wantErr) {
				return fmt.Errorf("key %q at seq %d: MultiGet err %v, Get err %v", k, seq, errs[j], wantErr)
			}
			if !bytes.Equal(vals[j], want) {
				return fmt.Errorf("key %q at seq %d: MultiGet %q, Get %q", k, seq, vals[j], want)
			}
		}
		return nil
	}

	var readerWG sync.WaitGroup
	rerrs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !writersDone.Load() {
				if err := check(ctl, rng); err != nil {
					rerrs <- err
					return
				}
			}
		}(r)
	}

	writerWG.Wait()
	writersDone.Store(true)
	readerWG.Wait()
	close(werrs)
	close(rerrs)
	for err := range werrs {
		t.Fatal(err)
	}
	for err := range rerrs {
		t.Fatal(err)
	}

	// Quiescent sweep: the live-head MultiGet agrees with Get for the
	// whole keyspace at once.
	all := make([][]byte, 0, writers*keysPerWriter)
	for w := 0; w < writers; w++ {
		for s := 0; s < keysPerWriter; s++ {
			all = append(all, key(w, s))
		}
	}
	vals, errs := db.MultiGet(tl, all)
	for i, k := range all {
		want, wantErr := db.Get(tl, k)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("key %q: MultiGet err %v, Get err %v", k, errs[i], wantErr)
		}
		if !bytes.Equal(vals[i], want) {
			t.Fatalf("key %q: MultiGet %q, Get %q", k, vals[i], want)
		}
	}
}

// TestReadStress hammers the full read path — per-block compression,
// the two-tier block cache (kept tiny so eviction and refill race),
// scans and batched MultiGets — from parallel readers against live
// writers. Under -race this vets the pooled decode buffers, the
// hot-tier admission of compressed blocks, the compressed-tier fills
// and the batch read-point clamp; the correctness invariant is the
// usual one: a value always belongs to the key it was read under.
func TestReadStress(t *testing.T) {
	opts := smallOpts(SyncAll)
	opts.AsyncCompaction = true
	opts.Compression = sstable.FastCompression
	opts.CompressionByLevel = []sstable.Compression{sstable.FastCompression, sstable.FastCompression, sstable.MaxCompression}
	opts.CompressedBlockCacheBytes = 16 << 10
	opts.BlockCacheBytes = 16 << 10
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)

	const (
		writers       = 2
		opsPerWriter  = 1200
		keysPerWriter = 300
	)
	key := func(w, slot int) []byte {
		return []byte(fmt.Sprintf("rs%02d-%06d", w, slot))
	}
	var writersDone atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	errs := make(chan error, 8)

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			for i := 0; i < opsPerWriter; i++ {
				k := key(w, i%keysPerWriter)
				// Compressible values: repeat the key so every data
				// block actually takes the codec path.
				v := bytes.Repeat(k, 8)
				if err := db.Put(ctl, k, v); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	checkValue := func(where string, k, v []byte) error {
		if len(v) != 0 && (len(v)%len(k) != 0 || !bytes.HasPrefix(v, k)) {
			return fmt.Errorf("%s: key %q carries foreign value %q", where, k, v)
		}
		return nil
	}

	// Point readers.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			for i := 0; !writersDone.Load(); i++ {
				k := key((r+i)%writers, i%keysPerWriter)
				v, err := db.Get(ctl, k)
				if err == ErrNotFound {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if err := checkValue("reader", k, v); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	// Batched readers.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			rng := rand.New(rand.NewSource(int64(500 + r)))
			batch := make([][]byte, 16)
			for !writersDone.Load() {
				for j := range batch {
					batch[j] = key(rng.Intn(writers), rng.Intn(keysPerWriter))
				}
				vals, merrs := db.MultiGet(ctl, batch)
				for j := range batch {
					if merrs[j] == ErrNotFound {
						continue
					}
					if merrs[j] != nil {
						errs <- fmt.Errorf("multiget reader %d: %w", r, merrs[j])
						return
					}
					if err := checkValue("multiget", batch[j], vals[j]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	// Scanners admit compressed blocks to both tiers as they go.
	for s := 0; s < 2; s++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			for !writersDone.Load() {
				it, err := db.NewIterator(ctl)
				if err != nil {
					errs <- fmt.Errorf("scanner: %w", err)
					return
				}
				var prev []byte
				for it.First(); it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						errs <- fmt.Errorf("scanner: keys out of order: %q then %q", prev, it.Key())
						return
					}
					prev = append(prev[:0], it.Key()...)
					if err := checkValue("scanner", it.Key(), it.Value()); err != nil {
						errs <- err
						return
					}
				}
				if err := it.Err(); err != nil {
					errs <- fmt.Errorf("scanner: %w", err)
					return
				}
			}
		}()
	}

	writerWG.Wait()
	writersDone.Store(true)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMultiGetNeverTornBatch races MultiGet against writers committing
// multi-key atomic batches: every batch writes the same version tag to
// all its sibling keys, so a MultiGet over the siblings must come back
// either all-missing or all carrying one tag. A mixed result would
// mean the batch's read point straddled a write group — exactly what
// clamping the sequence once per batch (against a visibleSeq that
// only advances on whole-group boundaries) forbids.
func TestMultiGetNeverTornBatch(t *testing.T) {
	opts := smallOpts(SyncAll)
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)

	const (
		writers      = 3
		batchesPer   = 300
		keysPerBatch = 4
	)
	key := func(w, k int) []byte {
		return []byte(fmt.Sprintf("tw%02d-k%d", w, k))
	}
	var writersDone atomic.Bool
	var writerWG sync.WaitGroup
	werrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			for i := 0; i < batchesPer; i++ {
				var b Batch
				for k := 0; k < keysPerBatch; k++ {
					b.Put(key(w, k), []byte(fmt.Sprintf("ver%06d", i)))
				}
				if err := db.Write(ctl, &b); err != nil {
					werrs <- err
					return
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	rerrs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			ctl := vclock.NewTimeline(tl.Now())
			batch := make([][]byte, keysPerBatch)
			for i := 0; !writersDone.Load(); i++ {
				w := (r + i) % writers
				for k := 0; k < keysPerBatch; k++ {
					batch[k] = key(w, k)
				}
				vals, errs := db.MultiGet(ctl, batch)
				var tag []byte
				seen := 0
				for k := range batch {
					if errs[k] == ErrNotFound {
						continue
					}
					if errs[k] != nil {
						rerrs <- errs[k]
						return
					}
					if seen == 0 {
						tag = vals[k]
					} else if !bytes.Equal(tag, vals[k]) {
						rerrs <- fmt.Errorf("torn batch: writer %d siblings carry %q and %q", w, tag, vals[k])
						return
					}
					seen++
				}
				if seen != 0 && seen != keysPerBatch {
					rerrs <- fmt.Errorf("torn batch: writer %d shows %d/%d siblings", w, seen, keysPerBatch)
					return
				}
			}
		}(r)
	}

	writerWG.Wait()
	writersDone.Store(true)
	readerWG.Wait()
	close(werrs)
	close(rerrs)
	for err := range werrs {
		t.Fatal(err)
	}
	for err := range rerrs {
		t.Fatal(err)
	}
}

// TestMultiGetFallbackRereadsUnresolved stops a MultiGet's walk on a
// table read fault and checks that the per-key fallback re-reads
// exactly the keys the walk left: engine.gets grows by their number.
// One key the walk resolved before the fault holds an empty value,
// which is copied out as nil, so a nil value with a nil error does not
// tell a resolved key from one the walk never reached. A lone Get that
// meets the fault counts no files examined.
func TestMultiGetFallbackRereadsUnresolved(t *testing.T) {
	ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ctl, smallOpts(SyncAll))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key%05d", i)
		mustPut(t, db, tl, key, string(healValue(key)))
	}
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	// An empty value, then rewrites of the keys after it until the
	// memtable holding it flushes to a table above the compacted keys.
	const empty, upper = "key00050", "key00060"
	mustPut(t, db, tl, empty, "")
	minor := db.m.minor.Value()
	for i := 51; db.m.minor.Value() == minor; i++ {
		if i == 200 {
			t.Fatal("the memtable never flushed")
		}
		key := fmt.Sprintf("key%05d", i)
		mustPut(t, db, tl, key, string(healValue(key)))
	}
	db.WaitBackground(tl)
	// The victim holds faulted, the first key the walk probes below the
	// flushed table; later, on another table, the walk never reaches.
	const faulted, later = "key01000", "key01900"
	v := db.Version()
	var flushed *version.FileMeta
	level := 0
	for l := range v.Files {
		for _, fm := range v.Files[l] {
			if flushed == nil || fm.Number > flushed.Number {
				flushed, level = fm, l
			}
		}
	}
	if string(flushed.SmallestUser()) != empty {
		t.Fatalf("the newest table starts at %s, not %s", flushed.SmallestUser(), empty)
	}
	var victim uint64
	for l := level + 1; l < version.NumLevels && victim == 0; l++ {
		for _, fm := range v.Files[l] {
			if string(fm.SmallestUser()) <= faulted && faulted <= string(fm.LargestUser()) {
				victim = fm.Number
				if later <= string(fm.LargestUser()) {
					t.Fatalf("%s and %s share table %d", faulted, later, victim)
				}
			}
		}
	}
	if victim == 0 {
		t.Fatalf("no table below level %d holds %s", level, faulted)
	}
	ctl.AddRule(vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpRead, Kind: vfs.KindError,
		Match: func(name string) bool { return name == TableName(victim) }})

	examined := db.m.getFilesExamined.Value()
	if _, err := db.Get(tl, []byte(faulted)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Get(%s) = %v, want the injected fault", faulted, err)
	}
	if n := db.m.getFilesExamined.Value() - examined; n != 0 {
		t.Fatalf("a Get that met a table error counted %d files examined, want 0", n)
	}

	batch := [][]byte{[]byte(later), []byte(empty), []byte(faulted), []byte(upper)}
	gets := db.m.gets.Value()
	vals, errs := db.MultiGet(tl, batch)
	if n := db.m.gets.Value() - gets; n != 2 {
		t.Fatalf("the fallback ran %d Gets, want 2 (%s and %s)", n, faulted, later)
	}
	if vals[1] != nil || errs[1] != nil {
		t.Fatalf("MultiGet(%s) = %q, %v, want the empty value", empty, vals[1], errs[1])
	}
	if !errors.Is(errs[2], vfs.ErrInjected) {
		t.Fatalf("MultiGet(%s): %v, want the injected fault", faulted, errs[2])
	}
	for _, i := range []int{0, 3} {
		if key := string(batch[i]); errs[i] != nil || !bytes.Equal(vals[i], healValue(key)) {
			t.Fatalf("MultiGet(%s): %q, %v", key, vals[i], errs[i])
		}
	}
}
