package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noblsm/internal/cache"
	"noblsm/internal/ext4"
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/ssd"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// flushMemtable dumps the live memtable to a table now, whatever its
// size, so a test decides where table boundaries fall.
func flushMemtable(tb testing.TB, db *DB, tl *vclock.Timeline) {
	tb.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.rotateMemtable(tl); err != nil {
		tb.Fatal(err)
	}
	if err := db.waitIdle(); err != nil {
		tb.Fatal(err)
	}
}

// TestCompactionBypassesBlockCache warms the block cache with Gets
// over one key range and compacts another: a compaction reads every
// input block once and deletes its inputs when it ends, so it must
// neither fill the cache nor push the warmed blocks out — on either
// executor (LevelDB's fill_cache = false).
func TestCompactionBypassesBlockCache(t *testing.T) {
	bothExecutors(t, func(t *testing.T, opts Options) {
		opts.BlockCacheBytes = 256 << 10 // a few dozen blocks: a filling scan would wipe it
		fs := ext4.New(smallFSConfig(), smallDevice())
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var warm []string
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("a%05d", i)
			warm = append(warm, key)
			if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactRange(tl, nil, nil); err != nil {
			t.Fatal(err)
		}
		readWarm := func() {
			for _, key := range warm {
				if v, err := db.Get(tl, []byte(key)); err != nil || !bytes.Equal(v, healValue(key)) {
					t.Fatalf("Get(%s): %d bytes, %v", key, len(v), err)
				}
			}
		}
		readWarm()
		fills := db.reg.Counter("cache.block.fills")
		misses := db.reg.Counter("cache.block.misses")
		filled := fills.Value()
		if filled == 0 {
			t.Fatal("the warming Gets filled nothing")
		}

		r := rand.New(rand.NewSource(5))
		for i := 0; i < 4000; i++ {
			key := fmt.Sprintf("b%05d", r.Intn(2000))
			if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactRange(tl, []byte("b"), []byte("c")); err != nil {
			t.Fatal(err)
		}
		if db.m.major.Value() == 0 {
			t.Fatal("no major compaction ran")
		}
		if got := fills.Value(); got != filled {
			t.Errorf("compactions inserted %d blocks into the block cache", got-filled)
		}
		missed := misses.Value()
		readWarm()
		if got := misses.Value(); got != missed {
			t.Errorf("%d warmed blocks were pushed out of the cache", got-missed)
		}
	})
}

// viewlessFS hides the filesystem's optional file extensions, so every
// block a compaction loads takes the pooled-copy path.
type viewlessFS struct{ vfs.FS }

func (v viewlessFS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	f, err := v.FS.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return struct{ vfs.File }{f}, nil
}

// viewCountFS counts the page-cache views its files are asked for and
// the ones refused. Every file a compaction reads is resident, so a
// refused view is a block that straddles two extents.
type viewCountFS struct {
	vfs.FS
	asked, refused *atomic.Int64
}

func (v viewCountFS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	f, err := v.FS.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return viewCountFile{f, v}, nil
}

type viewCountFile struct {
	vfs.File
	fs viewCountFS
}

func (f viewCountFile) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	p, ok, err := f.File.(vfs.ViewReader).ReadView(tl, n, off)
	f.fs.asked.Add(1)
	if !ok {
		f.fs.refused.Add(1)
	}
	return p, ok, err
}

// TestCompactionInputLoadersAgree compacts the same inputs through
// every route a block can take into a merge — a page-cache view, a
// pooled copy because the filesystem offers no views, a pooled copy
// because the block straddles two extents or is compressed, and any of
// them on a reader the table cache has already dropped — and wants the
// outputs byte for byte the same. Some block must take the straddle
// copy, whatever ext4.ExtentBytes is.
func TestCompactionInputLoadersAgree(t *testing.T) {
	run := func(t *testing.T, codec sstable.Compression, wrap func(vfs.FS) vfs.FS, tableCacheEntries int64) map[string][]byte {
		opts := smallOpts(SyncAll)
		opts.Compression = codec
		opts.WriteBufferSize = 8 << 20 // flushes happen where the test says
		opts.TableFileSize = 600 << 10 // several extents per output
		opts.Picker.L0CompactionTrigger = 100
		opts.Picker.BaseLevelBytes = 1 << 30
		fs := ext4.New(smallFSConfig(), smallDevice())
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, wrap(fs), opts)
		if err != nil {
			t.Fatal(err)
		}
		if tableCacheEntries > 0 {
			db.tcache.tables = cache.NewSharded(tableCacheEntries, 1)
		}
		// Five overlapping tables of ~750 KiB each: every one spans
		// more than two extents, so some 4 KiB block of each straddles a
		// chunk.
		r := rand.New(rand.NewSource(9))
		for table := 0; table < 5; table++ {
			for i := 0; i < 1400; i++ {
				key := fmt.Sprintf("key%05d", r.Intn(6000))
				value := healValue(key)
				r.Read(value[:300]) // the codec must not fold a table into one extent
				if err := db.Put(tl, []byte(key), value); err != nil {
					t.Fatal(err)
				}
			}
			flushMemtable(t, db, tl)
		}
		for _, fm := range db.Version().Files[0] {
			if codec == sstable.NoCompression && fm.Size <= 2*ext4.ExtentBytes {
				t.Fatalf("input table %d is %d bytes: no block is sure to straddle an extent", fm.Number, fm.Size)
			}
		}
		if err := db.CompactRange(tl, nil, nil); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for num := range db.Version().LiveFiles() {
			data, err := fs.ReadFile(tl, TableName(num))
			if err != nil {
				t.Fatal(err)
			}
			out[TableName(num)] = data
		}
		return out
	}
	identity := func(fs vfs.FS) vfs.FS { return fs }
	viewless := func(fs vfs.FS) vfs.FS { return viewlessFS{fs} }
	for _, codec := range []sstable.Compression{sstable.NoCompression, sstable.FastCompression} {
		var asked, refused atomic.Int64
		counted := func(fs vfs.FS) vfs.FS { return viewCountFS{fs, &asked, &refused} }
		want := run(t, codec, counted, 0)
		if len(want) < 2 {
			t.Fatalf("%d output tables: the merge cut nothing", len(want))
		}
		if refused.Load() == 0 {
			t.Fatalf("codec %d: none of %d input blocks straddled a %d KiB extent", codec, asked.Load(), ext4.ExtentBytes>>10)
		}
		t.Logf("codec %d: %d of %d input blocks straddled a %d KiB extent", codec, refused.Load(), asked.Load(), ext4.ExtentBytes>>10)
		for _, c := range []struct {
			name    string
			wrap    func(vfs.FS) vfs.FS
			entries int64
		}{
			{"no views", viewless, 0},
			{"table cache of 2", identity, 2},
			{"no views, table cache of 2", viewless, 2},
		} {
			t.Run(fmt.Sprintf("codec %d, %s", codec, c.name), func(t *testing.T) {
				got := run(t, codec, c.wrap, c.entries)
				if len(got) != len(want) {
					t.Fatalf("%d output tables, want %d", len(got), len(want))
				}
				for name, data := range want {
					if !bytes.Equal(got[name], data) {
						t.Errorf("%s differs from the view-loaded merge's output", name)
					}
				}
			})
		}
	}
}

// TestSelfHealingCompactionInput rots a block of a compaction
// successor at rest and then makes it the input of an inline
// compaction: the merge stage loads it through a peeking scan, whose CRC
// check must surface as a tableError naming that table, and the
// scheduler must roll it back onto its shadow predecessors and redo
// the work.
func TestSelfHealingCompactionInput(t *testing.T) {
	opts := smallOpts(SyncNobLSM)
	opts.PollInterval = vclock.Duration(1) << 50 // every dependency stays unresolved
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[string]bool)
	r := rand.New(rand.NewSource(42))
	var victim *version.FileMeta
	var level int
	for i := 0; victim == nil; i++ {
		if i == 20000 {
			t.Fatal("no healable successor with a table above it to merge into")
		}
		key := fmt.Sprintf("key%05d", r.Intn(4000))
		written[key] = true
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
		if i%25 != 0 {
			continue
		}
		for _, num := range db.HealableSuccessors() {
			db.mu.Lock()
			for _, s := range db.repairPlanFor(num).succs {
				if s.meta.Number == num && s.level > 0 &&
					len(db.current.Overlapping(s.level-1, s.meta.SmallestUser(), s.meta.LargestUser())) > 0 {
					victim, level = s.meta, s.level
				}
			}
			db.mu.Unlock()
		}
	}
	if err := fs.CorruptAt(TableName(victim.Number), victim.Size/3); err != nil {
		t.Fatal(err)
	}
	db.tcache.evict(tl, victim.Number)

	db.mu.Lock()
	above := db.current.Overlapping(level-1, victim.SmallestUser(), victim.LargestUser())[0]
	c := version.SetupCompaction(db.current, level-1, above, &db.pointers, db.opts.Picker)
	err = db.doCompaction(db.pickBg(), c)
	var te *tableError
	if !errors.Is(err, sstable.ErrCorrupt) || !errors.As(err, &te) || te.num != victim.Number {
		db.mu.Unlock()
		t.Fatalf("merge over the rotten table %d returned %v, want a tableError for it wrapping ErrCorrupt", victim.Number, err)
	}
	// The same compaction through the scheduler: it heals and retries.
	db.sched.fileToCompact, db.sched.fileToCompactLevel = above, level-1
	db.kick(tl.Now())
	db.waitIdle()
	db.mu.Unlock()

	if err := db.BackgroundError(); err != nil {
		t.Fatal(err)
	}
	if got := db.m.tablesQuarantined.Value(); got != 1 {
		t.Fatalf("%d tables quarantined, want 1", got)
	}
	if !fs.Exists(tl, TableName(victim.Number)+".corrupt") {
		t.Fatal("the rotten table was not quarantined")
	}
	for key := range written {
		if v, err := db.Get(tl, []byte(key)); err != nil || !bytes.Equal(v, healValue(key)) {
			t.Fatalf("Get(%s) after the heal: %d bytes, %v", key, len(v), err)
		}
	}
}

// TestCompactionMergeGrouping holds the grouped merge to the flat one.
// On a leveled, a fragmented (PebblesDB-style) and a hot-retaining
// (L2SM-style) store, every level is merged whole into the next twice
// — the runs doCompaction builds, and one child per table — and the
// two streams must agree entry for entry. A run may only hold tables
// that are strictly ordered and disjoint by user key: a leveled
// Ln→Ln+1 merge is then two children and an L0→L1 one at most a child
// per L0 table plus one, while the overlapping tables of a fragmented
// level, or a hot-retained table lying across its neighbours, fall back
// to children of their own. A rotten block deep inside a run still
// surfaces as the tableError of its table, which is what heal.go
// routes on.
func TestCompactionMergeGrouping(t *testing.T) {
	perTable := func(c *version.Compaction) [][]*version.FileMeta {
		var runs [][]*version.FileMeta
		for _, fm := range c.AllInputs() {
			runs = append(runs, []*version.FileMeta{fm})
		}
		return runs
	}
	// The rule on hand-made inputs: a hot-retained table lying across
	// its neighbours is a child of its own, and so is a table that only
	// shares a boundary user key with the one before it (two versions
	// of one key in two tables of a run would come out in table order,
	// not sequence order).
	table := func(num uint64, lo, hi string, hot bool) *version.FileMeta {
		return &version.FileMeta{
			Number:   num,
			Smallest: keys.MakeInternalKey(nil, []byte(lo), 9, keys.KindValue),
			Largest:  keys.MakeInternalKey(nil, []byte(hi), 1, keys.KindValue),
			Hot:      hot,
		}
	}
	hand := &version.Compaction{Level: 2}
	hand.Inputs[0] = []*version.FileMeta{table(1, "a", "c", false), table(2, "b", "f", true), table(3, "e", "h", false), table(4, "i", "k", false)}
	hand.Inputs[1] = []*version.FileMeta{table(5, "a", "d", false), table(6, "d", "e", false), table(7, "f", "z", false)}
	var got []string
	for _, run := range mergeRuns(hand) {
		var nums []uint64
		for _, fm := range run {
			nums = append(nums, fm.Number)
		}
		got = append(got, fmt.Sprint(nums))
	}
	if want := "[[1] [2] [3 4] [5] [6 7]]"; fmt.Sprint(got) != want {
		t.Fatalf("mergeRuns = %v, want %s", got, want)
	}

	modes := []struct {
		name string
		tune func(*Options)
	}{
		{"leveled", func(*Options) {}},
		{"fragmented", func(o *Options) { o.Picker.Fragmented = true }},
		{"hotcold", func(o *Options) { o.HotCold, o.HotThreshold = true, 2 }},
	}
	bothExecutors(t, func(t *testing.T, opts Options) {
		for _, mode := range modes {
			t.Run(mode.name, func(t *testing.T) {
				opts := opts
				mode.tune(&opts)
				fs := ext4.New(smallFSConfig(), smallDevice())
				tl := vclock.NewTimeline(0)
				db, err := Open(tl, fs, opts)
				if err != nil {
					t.Fatal(err)
				}
				// Half the updates go to fifty keys, so the hot-retaining
				// store has something to retain.
				r := rand.New(rand.NewSource(24))
				for i := 0; i < 8000; i++ {
					key := fmt.Sprintf("key%05d", r.Intn(3000))
					if i%2 == 0 {
						key = fmt.Sprintf("hot%03d", r.Intn(50))
					}
					if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
						t.Fatal(err)
					}
				}
				db.mu.Lock()
				defer db.mu.Unlock()
				if err := db.waitIdle(); err != nil {
					t.Fatal(err)
				}
				bg := db.pickBg()
				merged := func(runs [][]*version.FileMeta) *iterator.Merging {
					var inputs []*version.FileMeta
					for _, run := range runs {
						inputs = append(inputs, run...)
					}
					readers, err := db.openInputs(bg, inputs)
					if err != nil {
						t.Fatal(err)
					}
					return iterator.NewMerging(mergeChildren(runs, func(i int, fm *version.FileMeta) iterator.Iterator {
						return taggedIter{readers[i].NewScanIterator(chargedScan{readers[i], bg}, false), fm.Number}
					})...)
				}

				var deep *version.Compaction // a leveled merge into a level of three tables or more
				var splitSorted, sawHot bool
				for level := 0; level < version.NumLevels-1; level++ {
					c := &version.Compaction{Level: level}
					c.Inputs[0] = db.current.Files[level]
					if !opts.Picker.Fragmented {
						c.Inputs[1] = db.current.Files[level+1]
					}
					if c.Empty() {
						continue
					}
					runs := mergeRuns(c)
					var flat []*version.FileMeta
					for _, run := range runs {
						for i, fm := range run {
							if i > 0 && keys.CompareUser(run[i-1].LargestUser(), fm.SmallestUser()) >= 0 {
								t.Fatalf("L%d: tables %d and %d overlap inside one run", level, run[i-1].Number, fm.Number)
							}
						}
						flat = append(flat, run...)
					}
					all := c.AllInputs()
					if len(flat) != len(all) {
						t.Fatalf("L%d: runs hold %d tables, the compaction has %d", level, len(flat), len(all))
					}
					for i := range all {
						if flat[i] != all[i] {
							t.Fatalf("L%d: runs reorder the inputs at %d", level, i)
						}
						sawHot = sawHot || all[i].Hot
					}
					if mode.name == "leveled" {
						limit := 2
						if level == 0 {
							limit = len(c.Inputs[0]) + 1
						}
						if len(runs) > limit {
							t.Fatalf("L%d→L%d: %d merge children for %d + %d disjoint tables, want at most %d",
								level, level+1, len(runs), len(c.Inputs[0]), len(c.Inputs[1]), limit)
						}
						if level > 0 && len(c.Inputs[1]) >= 3 {
							deep = c
						}
					}
					if level > 0 && len(mergeRuns(&version.Compaction{Inputs: [2][]*version.FileMeta{c.Inputs[0]}})) > 1 {
						splitSorted = true
					}

					grouped, flatMerge := merged(runs), merged(perTable(c))
					n := 0
					grouped.First()
					for flatMerge.First(); flatMerge.Valid(); flatMerge.Next() {
						if !grouped.Valid() {
							t.Fatalf("L%d: grouped merge ends after %d entries, the flat one goes on", level, n)
						}
						if !bytes.Equal(grouped.Key(), flatMerge.Key()) || !bytes.Equal(grouped.Value(), flatMerge.Value()) {
							t.Fatalf("L%d entry %d: grouped %s, flat %s", level, n, keys.String(grouped.Key()), keys.String(flatMerge.Key()))
						}
						grouped.Next()
						n++
					}
					if grouped.Valid() || grouped.Err() != nil || flatMerge.Err() != nil {
						t.Fatalf("L%d after %d entries: grouped valid=%v err=%v, flat err=%v", level, n, grouped.Valid(), grouped.Err(), flatMerge.Err())
					}
					if n == 0 {
						t.Fatalf("L%d: merged nothing", level)
					}
				}

				switch mode.name {
				case "fragmented":
					if !splitSorted {
						t.Fatal("no fragmented level had overlapping tables: the fallback to a child per table went untested")
					}
				case "hotcold":
					if !sawHot {
						t.Fatal("no hot-retained table among the inputs")
					}
				case "leveled":
					if splitSorted {
						t.Fatal("a leveled level's tables did not form one run")
					}
					if deep == nil {
						t.Fatal("no level of three tables to corrupt the middle of")
					}
					victim := deep.Inputs[1][len(deep.Inputs[1])/2]
					if err := fs.CorruptAt(TableName(victim.Number), victim.Size/3); err != nil {
						t.Fatal(err)
					}
					db.tcache.evict(tl, victim.Number)
					m := merged(mergeRuns(deep))
					for m.First(); m.Valid(); m.Next() {
					}
					var te *tableError
					if err := m.Err(); !errors.Is(err, sstable.ErrCorrupt) || !errors.As(err, &te) || te.num != victim.Number {
						t.Fatalf("merge over the rotten table %d ended with %v, want a tableError for it wrapping ErrCorrupt", victim.Number, err)
					}
				}
			})
		}
	})
}

// chargedScan is a compaction scan's log that makes every load's
// charged read and decode charge on tl as the scan loads the block.
type chargedScan struct {
	r  *sstable.Reader
	tl *vclock.Timeline
}

func (c chargedScan) Load(h sstable.Handle, _ sstable.Image) (sstable.Image, error) {
	return c.r.ReadImage(c.tl, h)
}
func (c chargedScan) Loaded(n int, _ error) { c.r.ChargeDecode(c.tl, n) }

// armedFS fails chosen filesystem calls of a compaction: the nth
// charged read below the middle of a table (a data block, not the
// footer, index or filter a table open reads), as failRead maps table
// names to n, or the nth append to a table created while armed. It
// counts nothing a peek does, and records the tables removed while
// armed — the outputs a failed merge abandons.
type armedFS struct {
	vfs.FS
	mu                sync.Mutex
	armed             bool
	failRead, reads   map[string]int
	appendN, appends  int
	removed           []string
	readErr, writeErr error
}

func newArmedFS(fs vfs.FS) *armedFS {
	return &armedFS{FS: fs, failRead: map[string]int{}, reads: map[string]int{},
		readErr: errors.New("injected read fault"), writeErr: errors.New("injected append fault")}
}

func (a *armedFS) Create(tl *vclock.Timeline, name string) (vfs.File, error) {
	f, err := a.FS.Create(tl, name)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return &armedFile{File: f, a: a, name: name, output: a.armed}, nil
}

func (a *armedFS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	f, err := a.FS.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return &armedFile{File: f, a: a, name: name}, nil
}

func (a *armedFS) Remove(tl *vclock.Timeline, name string) error {
	a.mu.Lock()
	if a.armed {
		a.removed = append(a.removed, name)
	}
	a.mu.Unlock()
	return a.FS.Remove(tl, name)
}

type armedFile struct {
	vfs.File
	a      *armedFS
	name   string
	output bool
}

// failRead reports whether the read at off is the one to fail.
func (f *armedFile) failRead(off int64) bool {
	a := f.a
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.failRead[f.name]
	if !a.armed || !ok || off >= f.File.Size()/2 {
		return false
	}
	a.reads[f.name]++
	return a.reads[f.name] == n
}

func (f *armedFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	if f.failRead(off) {
		return 0, f.a.readErr
	}
	return f.File.ReadAt(tl, p, off)
}

func (f *armedFile) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	if f.failRead(off) {
		return nil, false, f.a.readErr
	}
	return f.File.(vfs.ViewReader).ReadView(tl, n, off)
}

// Peek forwards: a fault is for the charged call only.
func (f *armedFile) Peek(off int64) ([]byte, error) {
	return f.File.(vfs.Peeker).Peek(off)
}

func (f *armedFile) Append(tl *vclock.Timeline, p []byte) error {
	a := f.a
	a.mu.Lock()
	fail := false
	if a.armed && f.output {
		a.appends++
		fail = a.appends == a.appendN
	}
	a.mu.Unlock()
	if fail {
		return a.writeErr
	}
	return f.File.Append(tl, p)
}

// The ways TestCompactionFaultParity fails a compaction: the third
// charged read of a data block in the middle table of the deeper
// level, a flipped bit a third into that table, and the thirtieth
// append to an output. Each returns the table it names, if any.
func readFault(a *armedFS, _ *ext4.FS, c *version.Compaction) uint64 {
	victim := c.Inputs[1][len(c.Inputs[1])/2]
	a.failRead[TableName(victim.Number)] = 3
	return victim.Number
}

// firstReadFault fails the middle table's first data block, which
// Merging.First reads: the table is not the first of its run, so the
// merge goes on until the run reaches it.
func firstReadFault(a *armedFS, _ *ext4.FS, c *version.Compaction) uint64 {
	victim := c.Inputs[1][len(c.Inputs[1])/2]
	a.failRead[TableName(victim.Number)] = 1
	return victim.Number
}

func corruptBlock(_ *armedFS, fs *ext4.FS, c *version.Compaction) uint64 {
	victim := c.Inputs[1][len(c.Inputs[1])/2]
	if err := fs.CorruptAt(TableName(victim.Number), victim.Size/3); err != nil {
		panic(err)
	}
	return victim.Number
}

func appendFault(a *armedFS, _ *ext4.FS, _ *version.Compaction) uint64 {
	a.appendN = 30
	return 0
}

// TestCompactionFaultParity fails one major compaction three ways — a
// read fault on a middle input block, a CRC-corrupt input block and an
// append fault on an output block — and holds each to the figures the
// single-goroutine merge loop produced: the same error, the same
// abandoned outputs and the same virtual instant on the compaction's
// timeline — with raw tables, whose stages run on one goroutine, and
// with encoded ones, whose stages run apart. A corrupt block must come
// back as the tableError of its table, which is what routes it to
// healTableLocked. No goroutine the compaction started outlives it.
// Two more cases fail a block of the L1→L2 merge of
// TestCompactionAdoptsEncodedBlocks that the merge adopts when nothing
// fails: a flipped bit in it, and a fault on its charged read — which
// the stages run apart meet only after the merge peeked the block
// sound and adopted it. Their figures are the stages' inline (-cpu 1),
// which the stages apart must reproduce.
func TestCompactionFaultParity(t *testing.T) {
	victim := adoptedVictim(t)
	adoptedCorrupt := func(_ *armedFS, fs *ext4.FS, _ *version.Compaction) uint64 {
		if err := fs.CorruptAt(TableName(victim.table), int64(victim.h.Offset+victim.h.Size/2)); err != nil {
			panic(err)
		}
		return victim.table
	}
	adoptedReadFault := func(a *armedFS, _ *ext4.FS, _ *version.Compaction) uint64 {
		a.failRead[TableName(victim.table)] = victim.index + 1
		return victim.table
	}
	for _, tc := range []struct {
		name   string
		codec  sstable.Compression
		ladder bool // the sparse-over-dense L1→L2 merge
		arm    func(a *armedFS, fs *ext4.FS, c *version.Compaction) uint64
		want   string
	}{
		{"read fault", sstable.NoCompression, false, readFault,
			"engine: table 000011: injected read fault | removed 000020.ldb,000021.ldb,000022.ldb | at 14392121"},
		{"corrupt block", sstable.NoCompression, false, corruptBlock,
			"engine: table 000011: sstable: corrupt table: block CRC mismatch at 21103 | removed 000020.ldb,000021.ldb,000022.ldb | at 14408009"},
		{"append fault", sstable.NoCompression, false, appendFault,
			"injected append fault | removed 000020.ldb,000021.ldb | at 14194961"},
		{"first read fault", sstable.NoCompression, false, firstReadFault,
			"engine: table 000011: injected read fault | removed 000020.ldb,000021.ldb | at 14227437"},
		{"encoded first read fault", sstable.FastCompression, false, firstReadFault,
			"engine: table 000011: injected read fault | removed 000019.ldb,000020.ldb | at 14905824"},
		{"encoded read fault", sstable.FastCompression, false, readFault,
			"engine: table 000011: injected read fault | removed 000019.ldb,000020.ldb,000021.ldb | at 14990614"},
		{"encoded corrupt block", sstable.FastCompression, false, corruptBlock,
			"engine: table 000011: sstable: corrupt table: block CRC mismatch at 2251 | removed 000019.ldb,000020.ldb,000021.ldb | at 15114518"},
		{"encoded append fault", sstable.FastCompression, false, appendFault,
			"injected append fault | removed 000019.ldb,000020.ldb | at 14536607"},
		{"adopted block corrupt", sstable.MaxCompression, true, adoptedCorrupt,
			"engine: table 000014: sstable: corrupt table: block CRC mismatch at 288 | removed 000019.ldb,000020.ldb | at 32306506"},
		{"adopted block read fault", sstable.MaxCompression, true, adoptedReadFault,
			"engine: table 000014: injected read fault | removed 000019.ldb,000020.ldb | at 32305754"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(SyncAll)
			opts.Compression = tc.codec
			opts.WriteBufferSize = 8 << 20 // flushes happen where the test says
			opts.TableFileSize = 64 << 10
			if tc.codec != sstable.NoCompression {
				opts.TableFileSize = 6 << 10 // the codec folds the values
			}
			opts.Picker.L0CompactionTrigger = 100
			opts.Picker.BaseLevelBytes = 1 << 30
			opts.L0SlowdownTrigger, opts.L0StopTrigger = 100, 100
			if tc.ladder {
				opts = ladderOpts(SyncAll)
			}
			fs := ext4.New(smallFSConfig(), smallDevice())
			a := newArmedFS(fs)
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(tl)
			var c *version.Compaction
			if tc.ladder {
				c = sparseOverDense(t, db, tl, sparseKeys, sparseStride)
			} else {
				c = l0Merge(t, db, tl)
			}
			db.mu.Lock()
			defer db.mu.Unlock()
			victim := tc.arm(a, fs, c)
			bg := db.pickBg()
			// The set-up's compactions joined their stage goroutines,
			// which, like this compaction's below, may take a moment to
			// be gone: count once none has gone for a few milliseconds.
			goroutines := runtime.NumGoroutine()
			for still := 0; still < 5; {
				time.Sleep(time.Millisecond)
				if n := runtime.NumGoroutine(); n < goroutines {
					goroutines, still = n, 0
				} else {
					still++
				}
			}
			a.mu.Lock()
			a.armed = true
			a.mu.Unlock()
			err = db.doCompaction(bg, c)
			a.mu.Lock()
			a.armed = false
			removed := strings.Join(a.removed, ",")
			a.mu.Unlock()
			// A joined goroutine may take a moment to be gone.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n != goroutines {
				t.Errorf("%d goroutines after the failed compaction, %d before", n, goroutines)
			}
			if err == nil {
				t.Fatal("the armed compaction succeeded")
			}
			if victim != 0 {
				var te *tableError
				if !errors.As(err, &te) || te.num != victim {
					t.Errorf("error %v does not name input table %d", err, victim)
				}
			}
			got := fmt.Sprintf("%v | removed %s | at %d", err, removed, bg.Now())
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// l0Merge flushes three tables over a run of L1 tables and returns
// their L0→L1 merge: the compaction TestCompactionFaultParity fails.
func l0Merge(t *testing.T, db *DB, tl *vclock.Timeline) *version.Compaction {
	put := func(k int) {
		key := fmt.Sprintf("key%05d", k)
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		put(0)
		put(599)
		flushMemtable(t, db, tl)
	}
	r := rand.New(rand.NewSource(34))
	for _, k := range r.Perm(600) {
		put(k)
	}
	flushMemtable(t, db, tl)
	db.mu.Lock()
	c := version.SetupCompaction(db.current, 0, db.current.Files[0][0], &db.pointers, db.opts.Picker)
	err := db.doCompaction(db.pickBg(), c)
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		for _, k := range r.Perm(600)[:150] {
			put(k)
		}
		flushMemtable(t, db, tl)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	c = version.SetupCompaction(db.current, 0, db.current.Files[0][0], &db.pointers, db.opts.Picker)
	if len(c.Inputs[0]) != 3 || len(c.Inputs[1]) < 3 {
		t.Fatalf("%d + %d input tables, want 3 + at least 3", len(c.Inputs[0]), len(c.Inputs[1]))
	}
	return c
}

// TestCompactionPendingReadFault fails two reads of one Ln→Ln+1
// merge: the first read of a middle table of level n, which
// Merging.First makes — the table waits in its run, its error pending —
// and then a later read of the level n+1 table, which advances as a
// child of its own. The merge stops at the second failure and, as
// Merging.Err reports the first child in order, returns the first's
// error; the commit stage of the stages run apart must do the same. The
// figures are the single-goroutine merge loop's, raw and encoded.
func TestCompactionPendingReadFault(t *testing.T) {
	for _, tc := range []struct {
		codec sstable.Compression
		want  string
	}{
		{sstable.NoCompression, "engine: table 000011: injected read fault | removed 000014.ldb | at 10966546"},
		{sstable.FastCompression, "engine: table 000011: injected read fault | removed 000014.ldb | at 12839210"},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			opts := smallOpts(SyncAll)
			opts.Compression = tc.codec
			opts.WriteBufferSize = 8 << 20 // flushes happen where the test says
			opts.TableFileSize = 64 << 10
			opts.Picker.L0CompactionTrigger = 100
			opts.Picker.BaseLevelBytes = 1 << 30
			opts.L0SlowdownTrigger, opts.L0StopTrigger = 100, 100
			fs := ext4.New(smallFSConfig(), smallDevice())
			a := newArmedFS(fs)
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(tl)
			r := rand.New(rand.NewSource(34))
			put := func(k int) {
				v := make([]byte, 512) // noise: the codec runs but keeps blocks raw
				r.Read(v)
				if err := db.Put(tl, []byte(fmt.Sprintf("key%05d", k)), v); err != nil {
					t.Fatal(err)
				}
			}
			// A flush over nothing goes to L2; the next, two keys, to L1;
			// the third to L0, whose merge into L1 cuts a run of tables.
			for k := 0; k < 600; k += 6 {
				put(k)
			}
			flushMemtable(t, db, tl)
			put(0)
			put(599)
			flushMemtable(t, db, tl)
			for _, k := range r.Perm(600) {
				put(k)
			}
			flushMemtable(t, db, tl)
			db.mu.Lock()
			defer db.mu.Unlock()
			c := version.SetupCompaction(db.current, 0, db.current.Files[0][0], &db.pointers, db.opts.Picker)
			if err := db.doCompaction(db.pickBg(), c); err != nil {
				t.Fatal(err)
			}
			c = &version.Compaction{Level: 1}
			c.Inputs[0] = db.current.Files[1]
			c.Inputs[1] = db.current.Files[2]
			if len(c.Inputs[0]) < 3 || len(c.Inputs[1]) != 1 {
				t.Fatalf("%d + %d input tables, want at least 3 + 1", len(c.Inputs[0]), len(c.Inputs[1]))
			}
			pending := c.Inputs[0][len(c.Inputs[0])/2]
			a.failRead[TableName(pending.Number)] = 1
			a.failRead[TableName(c.Inputs[1][0].Number)] = 3
			bg := db.pickBg()
			a.mu.Lock()
			a.armed = true
			a.mu.Unlock()
			err = db.doCompaction(bg, c)
			a.mu.Lock()
			a.armed = false
			removed := strings.Join(a.removed, ",")
			a.mu.Unlock()
			if n := a.reads[TableName(c.Inputs[1][0].Number)]; n != 3 {
				t.Errorf("the level-2 table saw %d reads below its middle: its fault did not end the merge", n)
			}
			var te *tableError
			if !errors.As(err, &te) || te.num != pending.Number {
				t.Errorf("error %v does not name the pending table %d", err, pending.Number)
			}
			got := fmt.Sprintf("%v | removed %s | at %d", err, removed, bg.Now())
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// BenchmarkMajorCompaction times one L0→L1 merge of 4 + 6 tables of
// 1 KB values on the real ext4/ssd stack — the layer benchmark of the
// compaction data path (ROADMAP item 1): MB/s of input, B/op and
// allocs/op with -benchmem. At -cpu 1 the three stages share one core,
// so it measures what staging costs; at -cpu 2 the seal stage runs
// beside the merge.
//
//	go test ./internal/engine -run '^$' -bench MajorCompaction -benchtime 20x -benchmem -cpu 1,2
func BenchmarkMajorCompaction(b *testing.B) { benchMajorCompaction(b, sstable.NoCompression) }

// BenchmarkMajorCompactionMax is BenchmarkMajorCompaction with every
// table stored at MaxCompression: the seal stage's encode dominates.
func BenchmarkMajorCompactionMax(b *testing.B) { benchMajorCompaction(b, sstable.MaxCompression) }

func benchMajorCompaction(b *testing.B, codec sstable.Compression) {
	opts := DefaultOptions()
	opts.Compression = codec
	opts.SyncMode = SyncNobLSM
	opts.WriteBufferSize = 64 << 20 // flushes happen where the benchmark says
	opts.TableFileSize = 1100 << 10 // six outputs for the 6 000 keys below
	opts.Picker.L0CompactionTrigger = 100
	opts.Picker.BaseLevelBytes = 1 << 30
	opts.L0SlowdownTrigger, opts.L0StopTrigger = 100, 100
	value := func(int) []byte { return bytes.Repeat([]byte("v"), 1024) }
	if codec != sstable.NoCompression {
		opts.TableFileSize = 720 << 10
		value = letterRuns
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, fs, opts)
		if err != nil {
			b.Fatal(err)
		}
		put := func(k int) {
			if err := db.Put(tl, []byte(fmt.Sprintf("key%09d", k)), value(k)); err != nil {
				b.Fatal(err)
			}
		}
		merge := func() (*version.Compaction, error) {
			db.mu.Lock()
			defer db.mu.Unlock()
			c := version.SetupCompaction(db.current, 0, db.current.Files[0][0], &db.pointers, db.opts.Picker)
			return c, db.doCompaction(db.pickBg(), c)
		}
		// A flush that overlaps nothing is pushed down to L2 and the next
		// one to L1; two tables spanning the key space go first, so that
		// every later flush overlaps L1 and stays in L0.
		for range 2 {
			put(0)
			put(5999)
			flushMemtable(b, db, tl)
		}
		r := rand.New(rand.NewSource(1))
		for _, k := range r.Perm(6000) {
			put(k)
		}
		flushMemtable(b, db, tl)
		if _, err := merge(); err != nil {
			b.Fatal(err)
		}
		for range 4 {
			for _, k := range r.Perm(6000)[:1000] {
				put(k)
			}
			flushMemtable(b, db, tl)
		}
		if v := db.Version(); len(v.Files[0]) != 4 || len(v.Files[1]) != 6 {
			b.Fatalf("%d + %d input tables, want 4 + 6", len(v.Files[0]), len(v.Files[1]))
		}
		b.StartTimer()
		c, err := merge()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(c.InputBytes())
		db.Close(tl)
	}
}

// letterRuns is key k's 1 KiB value for the encoded compaction
// benchmarks: letter runs seeded by the key, in which the codec finds
// something but which it does not fold to nothing.
func letterRuns(k int) []byte {
	v := make([]byte, 0, 1024)
	seed := uint64(k)*0x9e3779b97f4a7c15 + 1
	for len(v) < cap(v) {
		seed = seed*6364136223846793005 + 1442695040888963407
		for run := int(seed>>56)%7 + 1; run > 0 && len(v) < cap(v); run-- {
			v = append(v, byte('a'+(seed>>33)%26))
		}
	}
	return v
}

// BenchmarkMajorCompactionMaxSparse times one L1→L2 merge of a table
// holding every tenth key over ten tables holding them all, every
// table at MaxCompression: the deeper level's blocks that no L1 key
// falls into are adopted as they are stored, the rest re-encoded. MB/s
// of input, as BenchmarkMajorCompaction reports it.
//
//	go test ./internal/engine -run '^$' -bench MajorCompactionMaxSparse -benchtime 20x -benchmem -cpu 1,2
func BenchmarkMajorCompactionMaxSparse(b *testing.B) {
	const n = 6000
	opts := DefaultOptions()
	opts.Compression = sstable.MaxCompression
	opts.SyncMode = SyncNobLSM
	opts.WriteBufferSize = 64 << 20 // flushes happen where the benchmark says
	opts.TableFileSize = 440 << 10  // ten tables for the n keys below
	opts.Picker.L0CompactionTrigger = 100
	opts.Picker.BaseLevelBytes = 1 << 30
	opts.L0SlowdownTrigger, opts.L0StopTrigger = 100, 100
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, fs, opts)
		if err != nil {
			b.Fatal(err)
		}
		put := func(k int) {
			if err := db.Put(tl, []byte(fmt.Sprintf("key%09d", k)), letterRuns(k)); err != nil {
				b.Fatal(err)
			}
		}
		merge := func(c *version.Compaction) {
			db.mu.Lock()
			defer db.mu.Unlock()
			if err := db.doCompaction(db.pickBg(), c); err != nil {
				b.Fatal(err)
			}
		}
		levels := func(level int) *version.Compaction {
			v := db.Version()
			c := &version.Compaction{Level: level}
			c.Inputs[0], c.Inputs[1] = v.Files[level], v.Files[level+1]
			return c
		}
		// Two tables spanning the key space go to L2 and L1, so the
		// dense flush stays in L0; it is merged down into L2.
		for range 2 {
			put(0)
			put(n - 1)
			flushMemtable(b, db, tl)
		}
		for _, k := range rand.New(rand.NewSource(1)).Perm(n) {
			put(k)
		}
		flushMemtable(b, db, tl)
		merge(levels(0))
		merge(levels(1))
		for k := 0; k < n; k += 10 {
			put(k)
		}
		flushMemtable(b, db, tl)
		if v := db.Version(); len(v.Files[0]) == 1 {
			merge(levels(0)) // a move: L1 is empty
		}
		c := levels(1)
		if len(c.Inputs[0]) != 1 || len(c.Inputs[1]) != 10 {
			b.Fatalf("%d + %d input tables, want 1 + 10", len(c.Inputs[0]), len(c.Inputs[1]))
		}
		adopted := db.m.adoptedBytes.Value()
		b.StartTimer()
		merge(c)
		b.StopTimer()
		b.SetBytes(c.InputBytes())
		b.ReportMetric(100*float64(db.m.adoptedBytes.Value()-adopted)/float64(c.InputBytes()), "%adopted")
		db.Close(tl)
	}
}
