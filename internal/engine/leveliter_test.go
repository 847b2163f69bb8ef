package engine

import (
	"bytes"
	"fmt"
	"testing"

	"noblsm/internal/ext4"
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
	mount, ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncAll)
	db, err := Open(tl, mount, opts)
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
		db, err := Open(tl, mount, opts)
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
	mount, ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncAll)
	db, err := Open(tl, mount, opts)
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
	if db, err = Open(tl, mount, opts); err != nil {
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
