package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// ladderOpts are smallOpts with the read-tuned codec ladder — fast
// blocks at L0 and L1, MaxCompression below — and flushes and
// compactions only where a test asks for them.
func ladderOpts(mode SyncMode) Options {
	opts := smallOpts(mode)
	opts.Compression = sstable.FastCompression
	opts.CompressionByLevel = make([]sstable.Compression, version.NumLevels)
	for l := range opts.CompressionByLevel {
		opts.CompressionByLevel[l] = sstable.MaxCompression
		if l < 2 {
			opts.CompressionByLevel[l] = sstable.FastCompression
		}
	}
	opts.WriteBufferSize = 8 << 20
	opts.Picker.L0CompactionTrigger = 100
	opts.Picker.BaseLevelBytes = 1 << 30
	opts.L0SlowdownTrigger, opts.L0StopTrigger = 100, 100
	return opts
}

// The store sparseOverDense makes for the tests: sparseKeys keys, and
// every sparseStride-th of them again one level up.
const sparseKeys, sparseStride = 1500, 20

// sparseOverDense fills db with n keys at L2, stored at MaxCompression
// by an L1→L2 merge, and then every stride-th key again at L1, and
// returns the L1→L2 compaction of the sparse level over the dense one.
// The caller runs the compaction under db.mu.
func sparseOverDense(tb testing.TB, db *DB, tl *vclock.Timeline, n, stride int) *version.Compaction {
	tb.Helper()
	put := func(k, round int) {
		key := fmt.Sprintf("key%05d", k)
		v := healValue(key)
		if round == 2 {
			// Shorter than what it replaces: the merge's blocks fall out
			// of step with the input's, so the block being filled is
			// cut short before an adopted one.
			v = v[:300]
		}
		v[0] = byte('a' + round)
		if err := db.Put(tl, []byte(key), v); err != nil {
			tb.Fatal(err)
		}
	}
	compact := func(c *version.Compaction) {
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.doCompaction(db.pickBg(), c); err != nil {
			tb.Fatal(err)
		}
	}
	// A flush over nothing goes to L2 and the next to L1: two tables
	// spanning the key space go first, so the dense flush stays in L0.
	for range 2 {
		put(0, 0)
		put(n-1, 0)
		flushMemtable(tb, db, tl)
	}
	for _, k := range rand.New(rand.NewSource(36)).Perm(n) {
		put(k, 1)
	}
	flushMemtable(tb, db, tl)
	v := db.Version()
	compact(version.SetupCompaction(v, 0, v.Files[0][0], &db.pointers, db.opts.Picker))
	v = db.Version()
	c := &version.Compaction{Level: 1}
	c.Inputs[0], c.Inputs[1] = v.Files[1], v.Files[2]
	compact(c)
	for k := 0; k < n; k += stride {
		put(k, 2)
	}
	flushMemtable(tb, db, tl)
	if v = db.Version(); len(v.Files[0]) == 1 {
		// Too much below it to push the flush down: move it.
		compact(version.SetupCompaction(v, 0, v.Files[0][0], &db.pointers, db.opts.Picker))
	}
	v = db.Version()
	if len(v.Files[0]) != 0 || len(v.Files[1]) != 1 || len(v.Files[2]) < 3 {
		tb.Fatalf("levels hold %d, %d and %d tables, want 0, 1 and at least 3", len(v.Files[0]), len(v.Files[1]), len(v.Files[2]))
	}
	c = &version.Compaction{Level: 1}
	c.Inputs[0], c.Inputs[1] = v.Files[1], v.Files[2]
	return c
}

// scannedBlock is one data block as a scan loaded it: its table, its
// handle and index there, its stored image and its entries.
type scannedBlock struct {
	table       uint64
	h           sstable.Handle
	index       int
	image       []byte
	ikeys, vals [][]byte
}

// recordingScan is a compaction scan's log that makes every load's
// charged read on tl and keeps a copy of the image.
type recordingScan struct {
	r      *sstable.Reader
	tl     *vclock.Timeline
	table  uint64
	blocks *[]scannedBlock
}

func (s recordingScan) Load(h sstable.Handle, _ sstable.Image) (sstable.Image, error) {
	im, err := s.r.ReadImage(s.tl, h)
	if err == nil {
		index := 0
		if n := len(*s.blocks); n > 0 && (*s.blocks)[n-1].table == s.table {
			index = (*s.blocks)[n-1].index + 1
		}
		*s.blocks = append(*s.blocks, scannedBlock{table: s.table, h: h, index: index, image: append([]byte(nil), im.B...)})
	}
	return im, err
}
func (s recordingScan) Loaded(int, error) {}

// scanTables reads every data block of tables, in order.
func scanTables(tb testing.TB, db *DB, tl *vclock.Timeline, tables []*version.FileMeta) []scannedBlock {
	tb.Helper()
	var blocks []scannedBlock
	for _, fm := range tables {
		r, err := db.tcache.open(tl, fm)
		if err != nil {
			tb.Fatal(err)
		}
		it := r.NewScanIterator(recordingScan{r, tl, fm.Number, &blocks}, false)
		for it.First(); it.Valid(); it.Next() {
			b := &blocks[len(blocks)-1]
			b.ikeys = append(b.ikeys, append([]byte(nil), it.Key()...))
			b.vals = append(b.vals, append([]byte(nil), it.Value()...))
		}
		if err := it.Err(); err != nil {
			tb.Fatal(err)
		}
		it.Release()
	}
	return blocks
}

// TestCompactionAdoptsEncodedBlocks merges a sparse L1 into a dense L2
// stored at MaxCompression, the output codec, with the stages inline
// (-cpu 1) and apart (-cpu 2). The dense blocks no sparse key falls
// into come out as they went in, and nothing else changes:
//
//   - both runs adopt the same blocks, and some;
//   - a full output data block equals an input one exactly when it was
//     adopted (here a full block the merge re-cuts always gains or
//     loses an entry), and an adopted block equals what sealing its
//     entries makes, cut where the cutter cuts it;
//   - the outputs hold the merge's stream, the newest version of every
//     key, and every output table's index and filter find each of its
//     keys.
func TestCompactionAdoptsEncodedBlocks(t *testing.T) {
	const n, stride = sparseKeys, sparseStride
	type run struct {
		blocks, bytes int64
		history       string
	}
	var runs []run
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		rec := newOpHistory(ext4.New(smallFSConfig(), smallDevice()))
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, rec, ladderOpts(SyncNobLSM))
		if err != nil {
			t.Fatal(err)
		}
		c := sparseOverDense(t, db, tl, n, stride)
		inputs := scanTables(t, db, tl, c.AllInputs())
		blocks0, bytes0 := db.m.adoptedBlocks.Value(), db.m.adoptedBytes.Value()
		db.mu.Lock()
		err = db.doCompaction(db.pickBg(), c)
		db.mu.Unlock()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		out := db.Version().Files[2]
		outputs := scanTables(t, db, tl, out)

		in := make(map[string]bool, len(inputs))
		for _, b := range inputs {
			in[string(b.image)] = true
		}
		var sameBlocks, sameBytes int64
		outOpts := db.buildOptions(2, nil)
		for _, b := range outputs {
			if !in[string(b.image)] {
				continue
			}
			resealed := sstable.NewRawBlock(outOpts)
			full := false
			for i := range b.ikeys {
				if full {
					t.Fatalf("the cutter cuts an output block of %d entries at entry %d", len(b.ikeys), i-1)
				}
				full = resealed.Add(b.ikeys[i], b.vals[i])
			}
			if !full {
				// The short block that ends the key space ends both.
				continue
			}
			sameBlocks++
			sameBytes += int64(len(b.image))
			resealed.Seal()
			if !bytes.Equal(resealed.Stored(), b.image) {
				t.Fatal("an adopted block differs from its entries sealed")
			}
		}
		r := run{db.m.adoptedBlocks.Value() - blocks0, db.m.adoptedBytes.Value() - bytes0, ""}
		if r.blocks == 0 || r.blocks != sameBlocks || r.bytes != sameBytes {
			t.Fatalf("-cpu %d: counters say %d blocks of %d bytes adopted; %d output blocks of %d bytes are input blocks",
				procs, r.blocks, r.bytes, sameBlocks, sameBytes)
		}

		// The merge's stream: every key once, at its newest version.
		var got [][]byte
		for _, b := range outputs {
			got = append(got, b.ikeys...)
		}
		if len(got) != n {
			t.Fatalf("outputs hold %d entries, want %d", len(got), n)
		}
		for k, ikey := range got {
			ukey, _, kind, _ := keys.ParseInternalKey(ikey)
			want := fmt.Sprintf("key%05d", k)
			if string(ukey) != want || kind != keys.KindValue {
				t.Fatalf("entry %d is %s, want a value of %s", k, keys.String(ikey), want)
			}
		}
		k := 0
		for _, b := range outputs {
			for _, v := range b.vals {
				round := byte('b')
				if k%stride == 0 {
					round = 'c'
				}
				if v[0] != round {
					t.Fatalf("key%05d holds round %c, want %c", k, v[0], round)
				}
				k++
			}
		}
		for _, fm := range out {
			r, err := db.tcache.open(tl, fm)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range outputs {
				for _, ikey := range b.ikeys {
					ukey := keys.UserKey(ikey)
					if fm.AfterFile(ukey) || fm.BeforeFile(ukey) {
						continue
					}
					if !r.MayContain(ukey) {
						t.Fatalf("table %d's filter rules out %s", fm.Number, ukey)
					}
					got, _, found, err := r.Get(tl, keys.MakeInternalKey(nil, ukey, keys.MaxSeqNum, keys.KindValue))
					if err != nil || !found || !bytes.Equal(got, ikey) {
						t.Fatalf("table %d: Seek(%s) = %s, %v, %v", fm.Number, ukey, keys.String(got), found, err)
					}
				}
			}
		}
		if err := db.Close(tl); err != nil {
			t.Fatal(err)
		}
		r.history = rec.digest()
		runs = append(runs, r)
		t.Logf("-cpu %d: %d blocks adopted, %d bytes (%.1f %% of %d compacted)",
			procs, r.blocks, r.bytes, 100*float64(r.bytes)/float64(c.InputBytes()), c.InputBytes())
	}
	if runs[0] != runs[1] {
		t.Fatalf("-cpu 1 and -cpu 2 differ: %+v, %+v", runs[0], runs[1])
	}
}

// adoptedVictim merges the store of TestCompactionAdoptsEncodedBlocks
// and returns an input block the merge adopted that lies in the first
// half of its table and is not the table's first block: a scan reaches
// it by Next, not in Merging.First, and the stages run apart peek it.
func adoptedVictim(tb testing.TB) scannedBlock {
	tb.Helper()
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ext4.New(smallFSConfig(), smallDevice()), ladderOpts(SyncAll))
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close(tl)
	c := sparseOverDense(tb, db, tl, sparseKeys, sparseStride)
	inputs := scanTables(tb, db, tl, c.AllInputs())
	db.mu.Lock()
	err = db.doCompaction(db.pickBg(), c)
	db.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string]bool)
	for _, b := range scanTables(tb, db, tl, db.Version().Files[2]) {
		out[string(b.image)] = true
	}
	for _, fm := range c.Inputs[1][1:] {
		for _, b := range inputs {
			if b.table == fm.Number && b.index > 0 && int64(b.h.Offset) < fm.Size/2 && out[string(b.image)] {
				return b
			}
		}
	}
	tb.Fatal("the merge adopted no block a scan reaches by Next in the first half of a table")
	return scannedBlock{}
}

// TestCompactionAdoptsBeforeOlderVersion adopts a block whose last key
// has an older version opening the next block of its table — a table a
// flush cut while a snapshot held both — and merges after the snapshot
// is gone: the drop rule must see the adopted block's last key, so the
// older version beyond it is dropped as it is without adoption.
func TestCompactionAdoptsBeforeOlderVersion(t *testing.T) {
	opts := ladderOpts(SyncNobLSM)
	opts.CompressionByLevel = nil // FastCompression at every level
	put := func(db *DB, tl *vclock.Timeline, k int) {
		key := fmt.Sprintf("key%05d", k)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
	}
	store := func(twice int) (*DB, *vclock.Timeline) {
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, ext4.New(smallFSConfig(), smallDevice()), opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := range 600 {
			put(db, tl, k)
		}
		if twice >= 0 {
			snap := db.GetSnapshot()
			put(db, tl, twice)
			flushMemtable(t, db, tl)
			if err := db.ReleaseSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		} else {
			flushMemtable(t, db, tl)
		}
		// A second table beside the first, so that their merge is not
		// a move.
		put(db, tl, 900)
		flushMemtable(t, db, tl)
		return db, tl
	}
	// Where the flush cuts blocks: the key the fourth block ends with.
	db, tl := store(-1)
	blocks := scanTables(t, db, tl, db.Version().Files[2][:1])
	last := blocks[3].ikeys[len(blocks[3].ikeys)-1]
	var twice int
	fmt.Sscanf(string(keys.UserKey(last)), "key%05d", &twice)
	db.Close(tl)

	db, tl = store(twice)
	defer db.Close(tl)
	v := db.Version()
	if len(v.Files[2]) != 2 {
		t.Fatalf("L2 holds %d tables, want 2", len(v.Files[2]))
	}
	in := scanTables(t, db, tl, v.Files[2][:1])
	if b := in[3]; !bytes.Equal(keys.UserKey(b.ikeys[len(b.ikeys)-1]), keys.UserKey(in[4].ikeys[0])) {
		t.Fatalf("block 3 ends with %s and block 4 opens with %s: no key goes on across them",
			keys.String(b.ikeys[len(b.ikeys)-1]), keys.String(in[4].ikeys[0]))
	}
	c := &version.Compaction{Level: 2}
	c.Inputs[0] = v.Files[2]
	db.mu.Lock()
	err := db.doCompaction(db.pickBg(), c)
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	out := scanTables(t, db, tl, db.Version().Files[3])
	adopted, versions := false, 0
	for _, b := range out {
		adopted = adopted || bytes.Equal(b.image, in[3].image)
		for _, ikey := range b.ikeys {
			if string(keys.UserKey(ikey)) == fmt.Sprintf("key%05d", twice) {
				versions++
			}
		}
	}
	if !adopted {
		t.Fatal("the block ending with the key's newer version was not adopted")
	}
	if versions != 1 {
		t.Fatalf("key%05d has %d versions after the merge, want 1", twice, versions)
	}
}
