package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"noblsm/internal/block"
	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// TestScanStopsOnTableReadError: a read error on a middle data block of
// a middle table of a sorted level ends the scan with that error. The
// level iterator must not step over the rest of the table to the next
// file and end short with a nil error. Both ways a level iterator meets
// the fault are covered: stepping into it with Next, and landing on it
// with Seek.
func TestScanStopsOnTableReadError(t *testing.T) {
	const n = 3000
	ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncAll)
	db, err := Open(tl, ctl, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, db, tl, n, 0)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	var files []*version.FileMeta
	for level := 1; level < version.NumLevels; level++ {
		if len(db.current.Files[level]) > 0 {
			files = db.current.Files[level]
		}
	}
	l0 := len(db.current.Files[0])
	db.mu.Unlock()
	if l0 != 0 || len(files) < 3 {
		t.Fatalf("want one sorted level of 3+ tables, have L0 %d, sorted %d", l0, len(files))
	}
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	mid := files[len(files)/2]
	target := TableName(mid.Number)
	var lo, hi int
	if _, err := fmt.Sscanf(string(mid.SmallestUser())+" "+string(mid.LargestUser()), "key%d key%d", &lo, &hi); err != nil {
		t.Fatalf("target table's key range: %v", err)
	}

	// scan opens the store afresh (cold table and block caches), fails
	// the fail'th read of the target table (none when fail is 0), scans
	// from start (from the first key when start < 0) and reports the
	// keys returned, the scan's error, and how many reads of the target
	// the positioning call and the whole scan issued.
	scan := func(start, fail int) (got int, err error, posReads, reads int) {
		db, err := Open(tl, ctl, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close(tl)
		ctl.AddRule(vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpRead, Match: func(name string) bool {
			if name != target {
				return false
			}
			reads++
			return reads == fail
		}})
		defer ctl.ClearRules()
		it, err := db.NewIterator(tl)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if start < 0 {
			it.First()
		} else {
			it.Seek([]byte(fmt.Sprintf("key%013d", start)))
		}
		posReads = reads
		for ; it.Valid(); it.Next() {
			got++
		}
		return got, it.Err(), posReads, reads
	}

	for _, tc := range []struct {
		name  string
		start int
		// pick chooses the read to fail from a clean run's counts.
		pick func(posReads, reads int) int
	}{
		// The target's data blocks are read last, one read each (four
		// here): failing the second-to-last read leaves a block on
		// either side.
		{"next", -1, func(_, reads int) int { return reads - 1 }},
		// Seeking into the middle of the target opens it and reads the
		// one data block the key is in, last.
		{"seek", (lo + hi) / 2, func(posReads, _ int) int { return posReads }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := n
			if tc.start >= 0 {
				want = n - tc.start
			}
			got, err, posReads, reads := scan(tc.start, 0)
			if err != nil || got != want {
				t.Fatalf("clean scan: %d keys, err %v; want %d", got, err, want)
			}
			before := ctl.Stats().Injected
			got, err, _, _ = scan(tc.start, tc.pick(posReads, reads))
			if ctl.Stats().Injected != before+1 {
				t.Fatalf("the fault did not fire (%d reads of %s, %d positioning)", reads, target, posReads)
			}
			if err == nil && got != want {
				t.Fatalf("scan ended short with no error: %d of %d keys", got, want)
			}
		})
	}
}

// TestScanStopsOnNewerTableReadError: a 2 000-key store has 100 keys
// rewritten into its newest table, which then fails every read. The
// merged scan must stop at the failure and report it: the rewritten
// keys the failed table did not deliver must not come back at their
// older values from the tables beneath.
func TestScanStopsOnNewerTableReadError(t *testing.T) {
	const n, every = 2000, 20
	ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncAll)
	db, err := Open(tl, ctl, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, db, tl, n, 0)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	value := func(round, i int) string {
		return fmt.Sprintf("value-%d-%d-%s", round, i, bytes.Repeat([]byte("x"), 100))
	}
	for i := 0; i < n; i += every {
		mustPut(t, db, tl, fmt.Sprintf("key%013d", i), value(1, i))
	}
	// Reopening flushes the rewrites into a table of their own.
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(tl, ctl, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	var newest *version.FileMeta
	for _, files := range db.Version().Files {
		for _, fm := range files {
			if newest == nil || fm.Number > newest.Number {
				newest = fm
			}
		}
	}
	if newest == nil || newest.Size == 0 {
		t.Fatal("no table holds the rewrites")
	}
	// Open the table and cache its first data block, then fail every
	// later read of it: the scan gets past the first block and no
	// further.
	if _, err := db.Get(tl, []byte(fmt.Sprintf("key%013d", 0))); err != nil {
		t.Fatal(err)
	}
	target := TableName(newest.Number)
	ctl.AddRule(vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpRead, Match: func(name string) bool { return name == target }})
	defer ctl.ClearRules()

	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := 0
	for it.First(); it.Valid(); it.Next() {
		var i int
		if _, err := fmt.Sscanf(string(it.Key()), "key%d", &i); err != nil {
			t.Fatal(err)
		}
		round := 0
		if i%every == 0 {
			round = 1
		}
		if string(it.Value()) != value(round, i) {
			t.Fatalf("scan returned %s at a stale value after %d keys (err %v)", it.Key(), got, it.Err())
		}
		got++
	}
	if ctl.Stats().Injected == 0 {
		t.Fatal("the fault did not fire")
	}
	if it.Err() == nil {
		t.Fatalf("scan ended after %d of %d keys with no error", got, n)
	}
}

// errBlockRead is the failure blockFaultFS injects.
var errBlockRead = errors.New("injected block read failure")

// blockFaultFS fails every read of one file at one offset — one block
// of one table — and passes everything else through. Handles opened
// before arm never fail: evict a table to make its next read reopen it
// here.
type blockFaultFS struct {
	vfs.FS
	mu   sync.Mutex
	name string
	off  int64
	hits int
}

func (f *blockFaultFS) arm(name string, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.name, f.off, f.hits = name, off, 0
}

func (f *blockFaultFS) fails(name string, off int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name != f.name || off != f.off {
		return false
	}
	f.hits++
	return true
}

func (f *blockFaultFS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	h, err := f.FS.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return &blockFaultFile{viewlessFile: viewlessFile{h}, fs: f, name: name}, nil
}

// blockFaultFile grants no view or peek, as viewlessFile, so that every
// read of the block meets ReadAt's fault.
type blockFaultFile struct {
	viewlessFile
	fs   *blockFaultFS
	name string
}

func (f *blockFaultFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	if f.fs.fails(f.name, off) {
		return 0, errBlockRead
	}
	return f.File.ReadAt(tl, p, off)
}

// dataBlockOffsets reads an uncompressed table's footer and index and
// returns the offset of every data block.
func dataBlockOffsets(t *testing.T, tl *vclock.Timeline, fs vfs.FS, name string) []int64 {
	t.Helper()
	data, err := fs.ReadFile(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-48:]
	_, n := binary.Uvarint(footer) // metaindex offset
	_, m := binary.Uvarint(footer[n:])
	indexOff, k := binary.Uvarint(footer[n+m:])
	indexSize, _ := binary.Uvarint(footer[n+m+k:])
	if codec := data[indexOff+indexSize]; codec != 0 {
		t.Fatalf("%s: index block has codec %d, want none", name, codec)
	}
	index, err := block.NewReader(data[indexOff:indexOff+indexSize], keys.CompareInternal)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	it := index.NewIter()
	for it.First(); it.Valid(); it.Next() {
		off, _ := binary.Uvarint(it.Value())
		offs = append(offs, int64(off))
	}
	return offs
}

// TestScanReadFaultAtEveryBlock fails, one at a time, the read of every
// data block of every table of a store with L0 files and two or more
// sorted levels — so both the per-file children and the level
// iterators meet the fault — and scans it from the first key and from
// a random one. Each scan must either return exactly the store's
// contents from its start with a nil error, or stop with the error
// after a correct prefix of them.
func TestScanReadFaultAtEveryBlock(t *testing.T) {
	fs := &blockFaultFS{FS: ext4.New(smallFSConfig(), smallDevice())}
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(SyncAll))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	model := make(map[string]string)
	put := func(n, round int) {
		for _, i := range rand.New(rand.NewSource(int64(round))).Perm(n) {
			k := fmt.Sprintf("key%013d", i)
			v := fmt.Sprintf("value-%d-%d-%s", round, i, bytes.Repeat([]byte("x"), 100))
			mustPut(t, db, tl, k, v)
			model[k] = v
		}
	}
	put(4000, 0)
	put(600, 1)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	put(1200, 2)
	put(300, 3)
	put(250, 4)

	v := db.Version()
	sorted := 0
	for level := 1; level < version.NumLevels; level++ {
		if len(v.Files[level]) > 0 {
			sorted++
		}
	}
	if len(v.Files[0]) == 0 || sorted < 2 {
		t.Fatalf("want L0 files and two or more sorted levels, have L0 %d, %d sorted", len(v.Files[0]), sorted)
	}
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)

	// scan checks one scan from want[from:] and reports whether it ended
	// on an error.
	scan := func(label string, from int) bool {
		it, err := db.NewIterator(tl)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if from == 0 {
			it.First()
		} else {
			it.Seek([]byte(want[from]))
		}
		i := from
		for ; it.Valid(); it.Next() {
			if i == len(want) || string(it.Key()) != want[i] || string(it.Value()) != model[want[i]] {
				t.Fatalf("%s: entry %d is %q, not the model's", label, i-from, it.Key())
			}
			i++
		}
		if err := it.Err(); err != nil {
			if !errors.Is(err, errBlockRead) {
				t.Fatalf("%s: scan ended on %v, not the injected fault", label, err)
			}
			return true
		}
		if i != len(want) {
			t.Fatalf("%s: scan ended after %d of %d entries with no error", label, i-from, len(want)-from)
		}
		return false
	}

	r := rand.New(rand.NewSource(1))
	tables, positions, failed := 0, 0, 0
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range v.Files[level] {
			name := TableName(fm.Number)
			tables++
			for _, off := range dataBlockOffsets(t, tl, fs, name) {
				fs.arm(name, off)
				for _, from := range []int{0, 1 + r.Intn(len(want)-1)} {
					label := fmt.Sprintf("L%d %s block@%d from %d", level, name, off, from)
					db.EvictTable(tl, fm.Number)
					if scan(label, from) {
						failed++
					}
				}
				if fs.hits == 0 {
					t.Fatalf("L%d %s block@%d: no scan read the block", level, name, off)
				}
				positions++
			}
		}
	}
	fs.arm("", -1)
	t.Logf("%d tables (%d in L0, %d sorted levels), %d block positions, %d of %d scans stopped on the fault",
		tables, len(v.Files[0]), sorted, positions, failed, 2*positions)
}

// rescan walks db from its first key twice: once with the next read of
// the table named target failing, and once more, through the same
// iterator, after the fault is gone. The first walk must stop on the
// fault; the second must return all n keys with a nil error, because an
// error belongs to the walk that met it and a non-nil Err says the end
// was not reached.
func rescan(t *testing.T, db *DB, tl *vclock.Timeline, ctl *vfs.FaultFS, target string, n int) {
	t.Helper()
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	before := ctl.Stats().Injected
	ctl.AddRule(vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpRead, Count: 1,
		Match: func(name string) bool { return name == target }})
	got := 0
	for it.First(); it.Valid(); it.Next() {
		got++
	}
	ctl.ClearRules()
	if ctl.Stats().Injected != before+1 || it.Err() == nil {
		t.Fatalf("first walk: %d keys, err %v, %d faults injected; want it to stop on the one fault",
			got, it.Err(), ctl.Stats().Injected-before)
	}
	got = 0
	for it.First(); it.Valid(); it.Next() {
		if want := fmt.Sprintf("key%013d", got); string(it.Key()) != want {
			t.Fatalf("second walk: key %d is %q, want %q", got, it.Key(), want)
		}
		got++
	}
	if got != n || it.Err() != nil {
		t.Fatalf("second walk: %d of %d keys, err %v; want every key and a nil error", got, n, it.Err())
	}
}

// TestRescanSortedLevelClearsError: a walk over one sorted level meets
// a read fault in its middle table; the next walk, fault-free, reaches
// the end and reports no error.
func TestRescanSortedLevelClearsError(t *testing.T) {
	const n = 3000
	ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ctl, smallOpts(SyncAll))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	workload(t, db, tl, n, 0)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	var files []*version.FileMeta
	for level := 1; level < version.NumLevels; level++ {
		if len(v.Files[level]) > 0 {
			files = v.Files[level]
		}
	}
	if len(v.Files[0]) != 0 || len(files) < 3 {
		t.Fatalf("want one sorted level of 3+ tables, have L0 %d, sorted %d", len(v.Files[0]), len(files))
	}
	rescan(t, db, tl, ctl, TableName(files[len(files)/2].Number), n)
}

// TestRescanL0ClearsError: a walk over five overlapping L0 tables, one
// merge child each, meets a read fault in one of them; the next walk,
// fault-free, reaches the end and reports no error.
func TestRescanL0ClearsError(t *testing.T) {
	const n, tables = 1500, 5
	opts := smallOpts(SyncAll)
	opts.WriteBufferSize = 1 << 20 // flushes happen where the test says
	opts.Picker.L0CompactionTrigger = 100
	opts.L0SlowdownTrigger, opts.L0StopTrigger = 100, 100
	ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, ctl, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	put := func(i int) { mustPut(t, db, tl, fmt.Sprintf("key%013d", i), fmt.Sprintf("value-%d", i)) }
	// A flush that overlaps nothing is pushed below L0: two tables
	// spanning the key space go first, so the five after stay in L0.
	for range 2 {
		put(0)
		put(n - 1)
		flushMemtable(t, db, tl)
	}
	for r := 0; r < tables; r++ {
		for i := r; i < n; i += tables {
			put(i)
		}
		flushMemtable(t, db, tl)
	}
	l0 := db.Version().Files[0]
	if len(l0) != tables {
		t.Fatalf("%d L0 tables, want %d", len(l0), tables)
	}
	rescan(t, db, tl, ctl, TableName(l0[tables/2].Number), n)
}
