package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// checkDirectory fails for every file no disposal pass will ever
// reclaim: after settle the directory holds CURRENT, the live MANIFEST,
// the live WAL, the live tables and the shadows the tracker protects.
func checkDirectory(t *testing.T, db *DB, fs vfs.FS, tl *vclock.Timeline) {
	t.Helper()
	live := db.Version().LiveFiles()
	for _, name := range fs.List(tl) {
		kind, num, ok := ParseFileName(name)
		switch {
		case name == CurrentName:
		case !ok:
			t.Errorf("foreign file %s", name)
		case kind == KindTable && (live[num] || db.Tracker().Protected(num)):
		case kind == KindLog && num == db.walNumber:
		case kind == KindManifest && num == db.manifestNumber:
		default:
			t.Errorf("%s is garbage nothing will reclaim", name)
		}
	}
}

// checkTrackerDrained fails if a dependency outlived a forced commit
// and a poll: every successor and every manifest edit is durable by
// then, so nothing may still be protected.
func checkTrackerDrained(t *testing.T, db *DB) {
	t.Helper()
	registered, resolved := counter(t, db, "tracker.registered"), counter(t, db, "tracker.resolved")
	if n := db.Tracker().PendingDeps(); n != 0 || registered != resolved {
		t.Errorf("%d dependencies pending after commit and poll (registered %d, resolved %d)",
			n, registered, resolved)
	}
}

// TestCompactRangeFlushFault fails the table create of CompactRange's
// flush. A transient fault is retried like any flush's: CompactRange
// succeeds and every acked key stays readable, before and after a
// reopen. A permanent one turns the DB read-only with the memtable
// parked and readable, and the reopen replays it from the WAL.
func TestCompactRangeFlushFault(t *testing.T) {
	for _, permanent := range []bool{false, true} {
		t.Run(fmt.Sprintf("permanent=%v", permanent), func(t *testing.T) {
			bothExecutors(t, func(t *testing.T, opts Options) {
				mount, ctl := vfs.NewFaultFS(ext4.New(smallFSConfig(), smallDevice()), 1)
				tl := vclock.NewTimeline(0)
				db, err := Open(tl, mount, opts)
				if err != nil {
					t.Fatal(err)
				}
				var keys []string
				for i := 0; i < 20; i++ {
					keys = append(keys, fmt.Sprintf("key%05d", i))
					if err := db.Put(tl, []byte(keys[i]), healValue(keys[i])); err != nil {
						t.Fatal(err)
					}
				}
				readable := func(when string) {
					t.Helper()
					for _, key := range keys {
						if v, err := db.Get(tl, []byte(key)); err != nil || !bytes.Equal(v, healValue(key)) {
							t.Fatalf("Get(%s) %s: %d bytes, %v", key, when, len(v), err)
						}
					}
				}
				rule := vfs.Rule{Class: vfs.ClassTable, Op: vfs.OpCreate, Kind: vfs.KindError, Transient: true, Count: 1}
				if permanent {
					rule.Transient, rule.Count = false, 0
				}
				ctl.AddRule(rule)
				err = db.CompactRange(tl, nil, nil)
				ctl.ClearRules()
				if permanent {
					if err == nil || !db.ReadOnly() {
						t.Fatalf("CompactRange = %v, read-only = %v after a permanent flush fault", err, db.ReadOnly())
					}
					db.mu.Lock()
					parked := db.sched.imm != nil
					db.mu.Unlock()
					if !parked {
						t.Fatal("the unflushed memtable left the immutable slot")
					}
				} else {
					if err != nil || db.ReadOnly() {
						t.Fatalf("CompactRange = %v, read-only = %v after one transient flush fault", err, db.ReadOnly())
					}
					keys = append(keys, "late")
					if err := db.Put(tl, []byte("late"), healValue("late")); err != nil {
						t.Fatal(err)
					}
				}
				readable("after CompactRange")
				db.Close(tl)
				if db, err = Open(tl, mount, opts); err != nil {
					t.Fatal(err)
				}
				readable("after reopen")
			})
		})
	}
}

// TestManifestRewriteReleasesShadows fails one MANIFEST append in the
// middle of a churn. The rewrite unlinks the manifest the dependencies
// so far were registered against; its inode never reports another
// committed byte, so they must stop waiting for it or their shadows
// stay on the filesystem until the next reopen.
func TestManifestRewriteReleasesShadows(t *testing.T) {
	bothExecutors(t, func(t *testing.T, opts Options) {
		fs := ext4.New(smallFSConfig(), smallDevice())
		mount, ctl := vfs.NewFaultFS(fs, 7)
		tl := vclock.NewTimeline(0)
		db, err := Open(tl, mount, opts)
		if err != nil {
			t.Fatal(err)
		}
		churn(t, db, tl, 3, 3000)
		before := db.manifestNumber
		ctl.Trigger(vfs.ClassManifest, vfs.OpWrite, vfs.KindError, true)
		churn(t, db, tl, 4, 3000)
		settle(t, db, fs, tl)
		if err := db.BackgroundError(); err != nil {
			t.Fatal(err)
		}
		if db.manifestNumber == before {
			t.Fatal("the fault missed the MANIFEST: nothing was rewritten")
		}
		checkTrackerDrained(t, db)
		checkDirectory(t, db, fs, tl)
	})
}

// TestExecutorEquivalence runs one seeded stream of puts, deletes,
// gets, held iterators, manual compactions and crash-reopens under both
// executors. Each must end with the model's contents, no work pending
// once the loop has stopped, a directory holding the live store and
// nothing else, and no user key in two files of a sorted level: the
// executors are one path.
func TestExecutorEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		bothExecutors(t, func(t *testing.T, opts Options) {
			fs := ext4.New(smallFSConfig(), smallDevice())
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			waitIdle := func() {
				t.Helper()
				db.mu.Lock()
				defer db.mu.Unlock()
				if err := db.waitIdle(); err != nil {
					t.Fatal(err)
				}
				if db.sched.imm != nil || db.sched.fileToCompact != nil || db.compactionPending() {
					t.Fatalf("work pending after the loop stopped: slot occupied %v, seek request %v, level over pressure %v",
						db.sched.imm != nil, db.sched.fileToCompact != nil, db.compactionPending())
				}
			}
			model := make(map[string][]byte)
			// A held iterator stays open across the ops that follow it.
			// endHold then supersedes every table it pins, commits the
			// successors and lets one Put's poll release the shadows,
			// and the rest of the scan must still read what the store
			// held when the iterator was opened.
			var held *Iterator
			var heldModel map[string][]byte
			heldSeen, heldUntil, holds := 0, 0, 0
			scanHeld := func(limit int) {
				t.Helper()
				for ; held.Valid() && heldSeen < limit; held.Next() {
					if want, ok := heldModel[string(held.Key())]; !ok || !bytes.Equal(held.Value(), want) {
						t.Fatalf("held iterator: %s holds %d bytes; its snapshot holds it: %v", held.Key(), len(held.Value()), ok)
					}
					heldSeen++
				}
			}
			endHold := func() {
				t.Helper()
				if err := db.CompactRange(tl, nil, nil); err != nil {
					t.Fatal(err)
				}
				fs.ForceCommit(tl)
				tl.Advance(opts.PollInterval)
				model["hold"] = healValue(fmt.Sprintf("hold@%d", holds))
				if err := db.Put(tl, []byte("hold"), model["hold"]); err != nil {
					t.Fatal(err)
				}
				scanHeld(len(heldModel) + 1)
				if err := held.Close(); err != nil || heldSeen != len(heldModel) {
					t.Fatalf("held iterator: %d keys, %v; its snapshot holds %d", heldSeen, err, len(heldModel))
				}
				held, holds = nil, holds+1
			}
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 6000; i++ {
				if held != nil && i == heldUntil {
					endHold()
				}
				key := fmt.Sprintf("key%05d", r.Intn(1500))
				switch p := r.Intn(1000); {
				case p < 700:
					model[key] = healValue(fmt.Sprintf("%s@%d", key, i))
					err = db.Put(tl, []byte(key), model[key])
				case p < 800:
					delete(model, key)
					err = db.Delete(tl, []byte(key))
				case p < 995:
					var v []byte
					v, err = db.Get(tl, []byte(key))
					if want, ok := model[key]; ok != (err == nil) || !bytes.Equal(v, want) {
						t.Fatalf("op %d: Get(%s) = %d bytes, %v; the model holds it: %v", i, key, len(v), err, ok)
					}
					if errors.Is(err, ErrNotFound) {
						err = nil
					}
				case p < 997:
					if held != nil {
						break
					}
					if held, err = db.NewIterator(tl); err == nil {
						heldModel = make(map[string][]byte, len(model))
						for k, v := range model {
							heldModel[k] = v
						}
						// Stop halfway, handles open on the tables under
						// the cursor.
						held.First()
						heldSeen, heldUntil = 0, i+150
						scanHeld(len(heldModel) / 2)
					}
				case p < 999:
					err = db.CompactRange(tl, nil, nil)
				default:
					if held != nil {
						endHold()
					}
					// Everything acked is committed, so the cut loses nothing;
					// the loop is stopped, so nothing runs on the dead handle.
					waitIdle()
					fs.ForceCommit(tl)
					fs.Crash(tl.Now())
					db, err = Open(tl, fs, opts)
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if held != nil {
				endHold()
			}
			if holds == 0 {
				t.Error("the stream held no iterator")
			}
			waitIdle()
			it, err := db.NewIterator(tl)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.First(); it.Valid(); it.Next() {
				if want, ok := model[string(it.Key())]; !ok || !bytes.Equal(it.Value(), want) {
					t.Fatalf("scan: %s holds %d bytes; the model holds it: %v", it.Key(), len(it.Value()), ok)
				}
				n++
			}
			if err := it.Close(); err != nil || n != len(model) {
				t.Fatalf("scan: %d keys, %v; the model holds %d", n, err, len(model))
			}
			settle(t, db, fs, tl)
			waitIdle()
			checkDirectory(t, db, fs, tl)
			// A sorted level is probed one file per key: a user key in
			// two of its files would hide the newer version.
			v, pairs := db.Version(), 0
			for level := 1; level < version.NumLevels; level++ {
				files := v.Files[level]
				for i := 1; i < len(files); i++ {
					pairs++
					if bytes.Equal(files[i-1].LargestUser(), files[i].SmallestUser()) {
						t.Errorf("level %d: user key %q straddles files %d and %d",
							level, files[i].SmallestUser(), files[i-1].Number, files[i].Number)
					}
				}
			}
			if pairs == 0 {
				t.Error("no sorted level holds two files: the straddle check saw nothing")
			}
		})
	}
}

// TestOpenFinishesLeftoverWork reopens a store whose L0 is over its
// trigger with an empty WAL — what a crash between a flush and the
// compaction it called for leaves behind. Nothing replays, so no flush
// drains the level; Open's own kick has to, with no write to wait for.
func TestOpenFinishesLeftoverWork(t *testing.T) {
	bothExecutors(t, func(t *testing.T, opts Options) {
		fs := ext4.New(smallFSConfig(), smallDevice())
		tl := vclock.NewTimeline(0)
		held := opts
		held.Picker.L0CompactionTrigger = 100 // the compaction that never got to run
		db, err := Open(tl, fs, held)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			workload(t, db, tl, 100, round)
			flushMemtable(t, db, tl)
		}
		fs.ForceCommit(tl)
		fs.Crash(tl.Now())
		if db, err = Open(tl, fs, opts); err != nil {
			t.Fatal(err)
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.waitIdle(); err != nil {
			t.Fatal(err)
		}
		if db.compactionPending() {
			t.Fatalf("a level is still over pressure after Open: L0 holds %d tables", len(db.current.Files[0]))
		}
		if db.m.major.Value() == 0 {
			t.Fatal("no compaction ran: the store was not over pressure to begin with")
		}
	})
}
