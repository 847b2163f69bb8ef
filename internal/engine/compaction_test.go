package engine

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
)

// TestCompactionCrashAtomicity cuts power in the window between a
// multi-output major compaction's merge finishing and its version edit
// being applied. All outputs install through ONE edit and ONE tracker
// registration, so recovery must expose either the complete
// pre-compaction state or the complete successor set — here the edit
// never landed, so none of the outputs may be referenced and every
// durably flushed key must still read back through the predecessor
// tables. The codec-ladder case cuts power after a compaction whose
// outputs hold input blocks it adopted as they were stored.
func TestCompactionCrashAtomicity(t *testing.T) {
	bothExecutors(t, func(t *testing.T, opts Options) {
		crashBeforeInstall(t, opts, func(k string, i int) []byte {
			return []byte(fmt.Sprintf("%s#%06d", k, i))
		}, false)
		t.Run("codec-ladder", func(t *testing.T) {
			ladder := ladderOpts(SyncNobLSM)
			opts.Compression, opts.CompressionByLevel = ladder.Compression, ladder.CompressionByLevel
			// Values of a kilobyte, which the codec folds: a few to a
			// block, so a deeper level's blocks often hold no key of the
			// level above.
			crashBeforeInstall(t, opts, func(k string, i int) []byte {
				return bytes.Repeat([]byte(fmt.Sprintf("%s#%06d", k, i)), 64)
			}, true)
		})
	})
}

// crashBeforeInstall writes value(k, i) for key k at the i-th write
// until a major compaction of two or more outputs — one that adopted
// input blocks, when adopting — reaches its install, cuts power there,
// recovers and checks what TestCompactionCrashAtomicity wants.
func crashBeforeInstall(t *testing.T, opts Options, value func(k string, i int) []byte, adopting bool) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Output identity is by inode: recovery may legitimately reuse
	// the bare numbers for fresh files (the crashed allocations were
	// volatile). The hook runs on the executor's goroutine; crashed
	// publishes outputInos to this one.
	var crashed atomic.Bool
	outputInos := make(map[uint64]int64)
	var adopted int64 // blocks adopted before this compaction
	db.mu.Lock()
	db.testBeforeInstall = func(outputs []*outputFile) {
		before := adopted
		adopted = db.m.adoptedBlocks.Value()
		if crashed.Load() || len(outputs) < 2 || adopting && adopted == before {
			return
		}
		for _, of := range outputs {
			outputInos[of.meta.Number] = of.meta.Ino
		}
		fs.Crash(tl.Now())
		crashed.Store(true)
	}
	db.mu.Unlock()

	// Fill until a compaction reaches the install window: a fixed op
	// count would make the test hostage to background scheduling.
	written := make(map[string]string)
	for i := 0; i < 400000 && !crashed.Load(); i++ {
		k := fmt.Sprintf("key-%06d", i%5000)
		v := value(k, i)
		if err := db.Put(tl, []byte(k), v); err != nil {
			// The crash poisoned the engine mid-workload — expected.
			break
		}
		written[k] = string(v)
	}
	db.Close(tl)
	if !crashed.Load() {
		t.Fatal("no compaction with two or more outputs reached the install window")
	}

	db2, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatalf("recovery after mid-compaction crash failed: %v", err)
	}
	defer db2.Close(tl)

	v := db2.Version()
	for level := range v.Files {
		for _, fm := range v.Files[level] {
			if ino, ok := outputInos[fm.Number]; ok && ino == fm.Ino {
				t.Fatalf("partial successor set recovered: output %06d (ino %d) is live "+
					"but its compaction's edit never committed", fm.Number, ino)
			}
		}
	}

	// The interrupted compaction's inputs must still serve reads:
	// every key either reads back a value this workload wrote for it
	// or was lost with the unsynced WAL tail.
	found := 0
	for k := range written {
		v, err := db2.Get(tl, []byte(k))
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			t.Fatalf("get %q after recovery: %v", k, err)
		}
		if !bytes.HasPrefix(v, []byte(k+"#")) {
			t.Fatalf("key %q recovered value %q of another key", k, v)
		}
		found++
	}
	if found == 0 {
		t.Fatal("recovery lost every key: predecessor tables did not survive the crash")
	}
	t.Logf("%d outputs dropped with the crash; %d/%d keys recovered", len(outputInos), found, len(written))
}
