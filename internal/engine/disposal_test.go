package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// bothExecutors runs f once on the inline virtual-time executor and
// once on the background goroutine: disposal is one pass for both.
func bothExecutors(t *testing.T, f func(t *testing.T, opts Options)) {
	for _, async := range []bool{false, true} {
		opts := smallOpts(SyncNobLSM)
		opts.AsyncCompaction = async
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) { f(t, opts) })
	}
}

// churn overwrites a small key space until flushes and compactions
// have run.
func churn(t *testing.T, db *DB, tl *vclock.Timeline, seed int64, n int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%05d", r.Intn(3000))
		if err := db.Put(tl, []byte(key), healValue(key)); err != nil {
			t.Fatal(err)
		}
	}
}

// settle parks the background worker, commits the journal, lets the
// tracker release what the commit resolved and runs one more disposal
// pass: whatever is on the filesystem afterwards is there to stay.
func settle(t *testing.T, db *DB, fs *ext4.FS, tl *vclock.Timeline) {
	t.Helper()
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	fs.ForceCommit(tl)
	db.Tracker().Poll(tl)
	db.mu.Lock()
	db.deleteObsolete(tl)
	db.mu.Unlock()
}

// TestReplayedLogsDisposed cuts power with an unflushed WAL. Open must
// keep every replayed log (nothing is provably durable until the
// recovery flush's MANIFEST edit commits) and no rotation ever notes
// them, so the scan has to hand them to the candidate pass — or they
// stay until the next reopen.
func TestReplayedLogsDisposed(t *testing.T) {
	bothExecutors(t, func(t *testing.T, opts Options) {
		fs := ext4.New(smallFSConfig(), smallDevice())
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		churn(t, db, tl, 1, 40) // well under one memtable: the WAL is all there is
		fs.ForceCommit(tl)
		fs.Crash(tl.Now())
		if db, err = Open(tl, fs, opts); err != nil {
			t.Fatal(err)
		}
		db.mu.Lock()
		replayed := len(db.obsoleteLogs)
		db.mu.Unlock()
		if replayed == 0 {
			t.Fatal("no replayed log survived Open's scan: the crash left nothing to test")
		}
		churn(t, db, tl, 2, 4000)
		settle(t, db, fs, tl)
		for _, name := range fs.List(tl) {
			if kind, num, ok := ParseFileName(name); ok && kind == KindLog && num < db.walNumber {
				t.Errorf("%s is still on the filesystem below the live log %d", name, db.walNumber)
			}
		}
	})
}

// TestFailedOutputsDisposed injects transient write faults into
// flushes and merges and one into a MANIFEST append. The partial
// tables of the failed attempts, and the manifest the rewrite
// superseded, are garbage no version ever named: once the retries have
// succeeded the directory holds the live store and nothing else.
//
// The table faults are armed in two bursts of tableFaults each, as the
// fault schedules bound theirs: a rule with no bound can fail one
// compaction more than bgMaxRetries times in a row (on the goroutine
// executor, whose interleaving moves where the draws land), and the
// store would go read-only — a different test. Every fault of both
// bursts and the manifest's together stay within the retry budget.
func TestFailedOutputsDisposed(t *testing.T) {
	const tableFaults = 3
	if 2*tableFaults+1 > bgMaxRetries {
		t.Fatal("the armed faults could exhaust one operation's retries")
	}
	bothExecutors(t, func(t *testing.T, opts Options) {
		fs := ext4.New(smallFSConfig(), smallDevice())
		ctl := vfs.NewFaultFS(fs, 7)
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, ctl, opts)
		if err != nil {
			t.Fatal(err)
		}
		burst := vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpWrite, Kind: vfs.KindError, Transient: true, P: 0.01, Count: tableFaults}
		ctl.AddRule(burst)
		churn(t, db, tl, 3, 3000)
		ctl.Trigger(vfs.ClassManifest, vfs.OpWrite, vfs.KindError, true)
		ctl.AddRule(burst)
		churn(t, db, tl, 4, 3000)
		ctl.ClearRules()
		if n := db.m.bgRetries.Value(); n < 2 {
			t.Fatalf("%d background retries: the faults missed the flushes and merges", n)
		}
		settle(t, db, fs, tl)
		if err := db.BackgroundError(); err != nil {
			t.Fatal(err)
		}
		// The rewrite dropped the old manifest's condition from every
		// pending dependency, so no shadow outlives the commit and poll.
		checkTrackerDrained(t, db)
		checkDirectory(t, db, fs, tl)
	})
}

// TestDisposalPassCharge pins the cost of a pass that finds nothing to
// remove at what the scan it replaced cost (DESIGN.md §5): the one
// page-cache access of the modelled LevelDB's GetChildren, plus in
// NobLSM mode the committed-size query that gates log deletion.
func TestDisposalPassCharge(t *testing.T) {
	access := ext4.PageCacheLatency
	for mode, want := range map[SyncMode]vclock.Duration{SyncAll: access, SyncNobLSM: 2 * access} {
		db, _, tl := newDB(t, mode)
		db.mu.Lock()
		if len(db.obsoleteTables)+len(db.obsoleteLogs) != 0 {
			t.Fatalf("fresh store has candidates: tables %v logs %v", db.obsoleteTables, db.obsoleteLogs)
		}
		before := tl.Now()
		db.deleteObsolete(tl)
		db.mu.Unlock()
		if got := tl.Now().Sub(before); got != want {
			t.Errorf("sync mode %v: an idle disposal pass advanced its timeline by %v, want %v", mode, got, want)
		}
	}
}
