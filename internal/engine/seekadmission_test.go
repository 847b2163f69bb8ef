package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// plantSeekVictim finds an absent key whose lookup examines two or
// more files, the first of them above the bottom level, and leaves that
// file one seek from exhaustion: the next lookup of the key charges it
// and asks for a seek compaction.
func plantSeekVictim(t *testing.T, db *DB, n int) (key []byte, victim *version.FileMeta, level int) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := 0; i < n; i++ {
		key = []byte(fmt.Sprintf("key%013d~", i))
		examined := 0
		victim = nil
		for l := 0; l < version.NumLevels; l++ {
			for _, f := range db.current.ForLookup(l, key, false) {
				if victim == nil {
					victim, level = f, l
				}
				examined++
			}
		}
		if examined >= 2 && level < version.NumLevels-1 {
			victim.AllowedSeeks = 1
			return key, victim, level
		}
	}
	t.Fatal("no lookup examines two files")
	return nil, nil, 0
}

func liveAt(v *version.Version, level int, fm *version.FileMeta) bool {
	for _, f := range v.Files[level] {
		if f == fm {
			return true
		}
	}
	return false
}

// seekReads are the two read paths that charge seeks; both go through
// chargeSeek, so every admission case runs once per path.
var seekReads = []struct {
	name string
	read func(db *DB, tl *vclock.Timeline, key []byte)
}{
	{"Get", func(db *DB, tl *vclock.Timeline, key []byte) { db.Get(tl, key) }},
	{"MultiGet", func(db *DB, tl *vclock.Timeline, key []byte) { db.MultiGet(tl, [][]byte{key}) }},
}

// TestSeekCompactionTriggers: with no write work outstanding, an
// exhausted budget runs exactly one seek compaction on the next
// multi-file read, and a second one right behind it runs too, while the
// first one's cost is still ahead of the reader — seek work does not
// hold off seek work.
func TestSeekCompactionTriggers(t *testing.T) {
	for _, r := range seekReads {
		t.Run(r.name, func(t *testing.T) {
			o := smallOpts(SyncAll)
			// Room below L1, so a file pushed down tips nothing into a
			// size compaction of its own.
			o.Picker.LevelMultiplier = 10
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, ext4.New(smallFSConfig(), smallDevice()), o)
			if err != nil {
				t.Fatal(err)
			}
			workload(t, db, tl, 3000, 0)
			db.WaitBackground(tl)
			for round := int64(1); round <= 2; round++ {
				key, victim, level := plantSeekVictim(t, db, 3000)
				before := db.Stats()
				r.read(db, tl, key)
				s := db.Stats()
				if s.SeekCompactions != round || s.SeekCompactionsDeferred != 0 ||
					s.MajorCompactions+s.TrivialMoves != before.MajorCompactions+before.TrivialMoves+1 {
					t.Fatalf("round %d: seek compactions run=%d deferred=%d, compactions %d, want %d, 0 and 1",
						round, s.SeekCompactions, s.SeekCompactionsDeferred,
						s.MajorCompactions+s.TrivialMoves-before.MajorCompactions-before.TrivialMoves, round)
				}
				if liveAt(db.Version(), level, victim) {
					t.Fatalf("round %d: victim %d still at L%d", round, victim.Number, level)
				}
				if tl.Now() >= db.maxBgTime() {
					t.Fatalf("round %d: the seek compaction's cost is not ahead of the reader", round)
				}
			}
			verifyWorkload(t, db, tl, 3000, 0)
		})
	}
}

// TestSeekCompactionYieldsToWriteWork: a budget exhausted while a
// flush and the size compaction behind it are still running on the
// background timelines starts nothing; the first multi-file read after
// they finish does.
func TestSeekCompactionYieldsToWriteWork(t *testing.T) {
	for _, r := range seekReads {
		t.Run(r.name, func(t *testing.T) {
			db, _, tl := newDB(t, SyncAll)
			workload(t, db, tl, 2000, 0)
			db.WaitBackground(tl)
			// Write until a Put's flush tips a level into a size
			// compaction: both run eagerly, their cost is still ahead of tl.
			majors := db.Stats().MajorCompactions
			for i := 0; db.Stats().MajorCompactions == majors; i++ {
				mustPut(t, db, tl, fmt.Sprintf("key%013d", i%2000), strings.Repeat("y", 100))
			}
			if tl.Now() >= db.sched.writeWorkDoneAt {
				t.Fatalf("writer at %v is not behind the write-work horizon %v", tl.Now(), db.sched.writeWorkDoneAt)
			}
			key, victim, level := plantSeekVictim(t, db, 2000)
			before := db.Version()
			for i := int64(1); i <= 3; i++ {
				r.read(db, tl, key)
				s := db.Stats()
				if s.SeekCompactions != 0 || s.SeekCompactionsDeferred != i {
					t.Fatalf("read %d: seek compactions run=%d deferred=%d, want 0 and %d",
						i, s.SeekCompactions, s.SeekCompactionsDeferred, i)
				}
			}
			if db.Version() != before {
				t.Fatal("a deferred seek compaction changed the version")
			}
			db.WaitBackground(tl)
			r.read(db, tl, key)
			if s := db.Stats(); s.SeekCompactions != 1 || s.SeekCompactionsDeferred != 3 {
				t.Fatalf("after the horizon: seek compactions run=%d deferred=%d, want 1 and 3",
					s.SeekCompactions, s.SeekCompactionsDeferred)
			}
			if liveAt(db.Version(), level, victim) {
				t.Fatalf("victim %d still at L%d", victim.Number, level)
			}
			want := "read-triggered compactions: 1 run, 3 deferred behind write work\n"
			for _, name := range []string{"noblsm.stats", "noblsm.doctor"} {
				if p, _ := db.Property(name); !strings.Contains(p, want) {
					t.Errorf("%s lacks %q:\n%s", name, want, p)
				}
			}
		})
	}
}

// gateFS holds table creation at a gate while it is shut, parking the
// background worker inside a flush with db.mu released.
type gateFS struct {
	vfs.FS
	mu      sync.Mutex
	gate    chan struct{} // non-nil while shut
	entered chan struct{} // receives once per held Create
}

func (g *gateFS) Create(tl *vclock.Timeline, name string) (vfs.File, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil && strings.HasSuffix(name, ".ldb") {
		g.entered <- struct{}{}
		<-gate
	}
	return g.FS.Create(tl, name)
}

// TestConcurrentSeekCompactionYieldsToFlush (AsyncCompaction, -race):
// while the worker holds an immutable memtable, readers exhausting seek
// budgets start nothing; once it has parked, one more multi-file read
// starts the seek compaction.
func TestConcurrentSeekCompactionYieldsToFlush(t *testing.T) {
	opts := smallOpts(SyncAll)
	opts.AsyncCompaction = true
	gfs := &gateFS{FS: ext4.New(smallFSConfig(), smallDevice()), entered: make(chan struct{}, 1)}
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, gfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle := func() {
		t.Helper()
		db.mu.Lock()
		err := db.waitIdle()
		db.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	workload(t, db, tl, 2000, 0)
	waitIdle()

	// Shut the gate and write until a rotation parks a memtable: the
	// worker stops inside the flush's table create.
	gate := make(chan struct{})
	gfs.mu.Lock()
	gfs.gate = gate
	gfs.mu.Unlock()
	for i := 0; ; i++ {
		mustPut(t, db, tl, fmt.Sprintf("key%013d", i%2000), strings.Repeat("z", 100))
		db.mu.Lock()
		parked := db.sched.imm != nil
		db.mu.Unlock()
		if parked {
			break
		}
	}
	<-gfs.entered

	const readers = 4
	key, victim, level := plantSeekVictim(t, db, 2000)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rtl := vclock.NewTimeline(tl.Now())
			for i := 0; i < 50; i++ {
				db.Get(rtl, key)
			}
		}()
	}
	wg.Wait()
	if s := db.Stats(); s.SeekCompactions != 0 || s.SeekCompactionsDeferred != readers*50 {
		t.Fatalf("worker busy: seek compactions run=%d deferred=%d, want 0 and %d",
			s.SeekCompactions, s.SeekCompactionsDeferred, readers*50)
	}

	gfs.mu.Lock()
	gfs.gate = nil
	gfs.mu.Unlock()
	close(gate)
	waitIdle()
	if n := db.Stats().SeekCompactions; n != 0 {
		t.Fatalf("%d seek compactions ran off deferred requests", n)
	}
	if !liveAt(db.Version(), level, victim) {
		// The flush's own size compactions took the victim; plant another.
		key, victim, level = plantSeekVictim(t, db, 2000)
	}
	db.WaitBackground(tl)
	db.Get(tl, key)
	waitIdle()
	if n := db.Stats().SeekCompactions; n != 1 {
		t.Fatalf("worker parked: %d seek compactions after one more read, want 1", n)
	}
	if liveAt(db.Version(), level, victim) {
		t.Fatalf("victim %d still at L%d", victim.Number, level)
	}
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}
}
