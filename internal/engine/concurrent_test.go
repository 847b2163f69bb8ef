package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
)

// TestConcurrentPutGetIterator hammers one DB from parallel writers,
// point readers and full-scan iterators. Under -race this vets the
// lock-free memtable read path, the readState snapshot (mem, imm,
// version) and, in the async subtests, the background flush/compaction
// worker racing the foreground. The invariant checked everywhere: a
// value always belongs to exactly the key it is read under — a torn
// read, a cross-key mixup in a recycled buffer, or a stale readState
// would all surface as a prefix mismatch. The NobLSM subtest commits
// the journal and polls the tracker every virtual millisecond, so
// shadows are released under the scanners all the time: a table a scan
// still holds may neither disappear nor have its handle closed (no
// "missing" table error, no vfs.ErrClosed).
func TestConcurrentPutGetIterator(t *testing.T) {
	for _, tc := range []struct {
		name              string
		mode              SyncMode
		async             bool
		writers, scanners int
		opsPerWriter      int
		cadence           vclock.Duration // journal commit and tracker poll; 0: smallOpts'
	}{
		{"sync", SyncAll, false, 3, 1, 1500, 0},
		{"asyncCompaction", SyncAll, true, 3, 1, 1500, 0},
		{"asyncNobLSMFastPoll", SyncNobLSM, true, 2, 4, 6000, vclock.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(tc.mode)
			opts.AsyncCompaction = tc.async
			fsCfg := smallFSConfig()
			if tc.cadence > 0 {
				opts.PollInterval, fsCfg.CommitInterval = tc.cadence, tc.cadence
			}
			fs := ext4.New(fsCfg, smallDevice())
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(tl)

			const (
				readers       = 2
				keysPerWriter = 250
			)
			writers, scanners, opsPerWriter := tc.writers, tc.scanners, tc.opsPerWriter
			key := func(w, slot int) []byte {
				return []byte(fmt.Sprintf("w%02d-%06d", w, slot))
			}
			var writersDone atomic.Bool
			var writerWG, readerWG sync.WaitGroup
			errs := make(chan error, writers+readers+scanners)

			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					ctl := vclock.NewTimeline(tl.Now())
					for i := 0; i < opsPerWriter; i++ {
						k := key(w, i%keysPerWriter)
						if i%41 == 40 {
							if err := db.Delete(ctl, k); err != nil {
								errs <- fmt.Errorf("writer %d delete: %w", w, err)
								return
							}
							continue
						}
						v := append(append([]byte(nil), k...), fmt.Sprintf("#%06d", i)...)
						if err := db.Put(ctl, k, v); err != nil {
							errs <- fmt.Errorf("writer %d put: %w", w, err)
							return
						}
					}
				}(w)
			}

			checkValue := func(where string, k, v []byte) error {
				if !bytes.HasPrefix(v, k) {
					return fmt.Errorf("%s: key %q carries value %q of another key", where, k, v)
				}
				return nil
			}
			for r := 0; r < readers; r++ {
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
			for s := 0; s < scanners; s++ {
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
						if err := it.Close(); err != nil {
							errs <- fmt.Errorf("scanner: %w", err)
							return
						}
					}
				}()
			}

			// Writers exit on error too, so this barrier cannot hang;
			// flipping writersDone then winds down readers and scanners.
			writerWG.Wait()
			writersDone.Store(true)
			readerWG.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				t.FailNow()
			}

			// The writers overlapped, so the leader must have coalesced
			// at least some groups; the histogram is the acceptance
			// surface for that (`DB.Property("noblsm.metrics")`).
			metrics, ok := db.Property("noblsm.metrics")
			if !ok || !strings.Contains(metrics, "engine.group_commit_size") {
				t.Fatalf("group-commit histogram missing from noblsm.metrics:\n%s", metrics)
			}
		})
	}
}

// TestConcurrentGroupCommitCrash cuts power under concurrent multi-key
// batch writers and checks the WAL-tail contract: a batch survives
// recovery entirely or not at all. Group commit merges the batches of
// a group into one WAL record, so a torn tail may only ever drop whole
// records — splitting a batch would mean the leader interleaved batch
// payloads or recovery replayed a partial record.
func TestConcurrentGroupCommitCrash(t *testing.T) {
	cfg := smallFSConfig()
	cfg.CommitInterval = 500 * vclock.Microsecond
	opts := smallOpts(SyncAll)
	opts.PollInterval = cfg.CommitInterval
	fs := ext4.New(cfg, smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 4
		batchesPer   = 120
		keysPerBatch = 5
	)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctl := vclock.NewTimeline(tl.Now())
			for i := 0; i < batchesPer; i++ {
				id := w*batchesPer + i
				var b Batch
				for k := 0; k < keysPerBatch; k++ {
					b.Put([]byte(fmt.Sprintf("batch%05d-key%d", id, k)),
						[]byte(fmt.Sprintf("val%05d", id)))
				}
				if err := db.Write(ctl, &b); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	fs.Crash(tl.Now())

	db2, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	intact, lost := 0, 0
	for id := 0; id < writers*batchesPer; id++ {
		present := 0
		for k := 0; k < keysPerBatch; k++ {
			key := []byte(fmt.Sprintf("batch%05d-key%d", id, k))
			v, err := db2.Get(tl, key)
			if err == ErrNotFound {
				continue
			}
			if err != nil {
				t.Fatalf("batch %d key %d: %v", id, k, err)
			}
			if want := fmt.Sprintf("val%05d", id); string(v) != want {
				t.Fatalf("batch %d key %d corrupted: %q", id, k, v)
			}
			present++
		}
		switch present {
		case 0:
			lost++
		case keysPerBatch:
			intact++
		default:
			t.Errorf("batch %d split by the crash: %d/%d keys survived", id, present, keysPerBatch)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if intact == 0 {
		t.Fatal("no batch survived the crash; the workload never outran a commit window")
	}
	t.Logf("crash kept %d batches whole, dropped %d whole", intact, lost)
}
