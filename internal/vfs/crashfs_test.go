package vfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// TestCrashFSRecordsBoundaries drives a scripted sequence of appends,
// fsyncs, renames and async commits and checks that every commit
// boundary is recorded with a monotone sequence and that the durable
// image only ever reflects journaled state.
func TestCrashFSRecordsBoundaries(t *testing.T) {
	cfg := ext4.DefaultConfig()
	cfg.CommitInterval = 10 * vclock.Millisecond
	inner := ext4.New(cfg, ssd.New(ssd.PM883()))
	crash := vfs.NewCrashFS(inner)
	tl := vclock.NewTimeline(0)

	f, err := crash.Create(tl, "a.log")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(tl, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(tl); err != nil { // fsync boundary
		t.Fatal(err)
	}
	pts := crash.Points()
	if len(pts) == 0 {
		t.Fatal("fsync recorded no commit boundary")
	}
	p := pts[len(pts)-1]
	if p.Kind != vfs.CommitFsync {
		t.Fatalf("boundary kind = %q, want %q", p.Kind, vfs.CommitFsync)
	}
	img, err := crash.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := img["a.log"]; !bytes.Equal(got, []byte("hello ")) {
		t.Fatalf("materialized a.log = %q, want %q", got, "hello ")
	}

	// Unsynced tail: append more, plus a second file, with no commit —
	// the recorded image must not change until the next boundary.
	if err := f.Append(tl, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := crash.WriteFile(tl, "b.tmp", []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	if err := crash.Rename(tl, "b.tmp", "b.dat"); err != nil {
		t.Fatal(err)
	}
	if n := len(crash.Points()); n != len(pts) {
		t.Fatalf("un-journaled mutations recorded %d new boundaries", n-len(pts))
	}

	// Let the journal age past several commit intervals; the flusher's
	// writeback delay means the data becomes durable on a later
	// boundary, and the rename commits as a namespace op.
	for i := 0; i < 6; i++ {
		tl.WaitUntil(tl.Now().Add(cfg.CommitInterval))
		crash.Exists(tl, "a.log") // entering the FS runs due commits
	}
	pts = crash.Points()
	lastImg, err := crash.Materialize(pts[len(pts)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lastImg["a.log"], []byte("hello world")) {
		t.Fatalf("a.log after async commits = %q, want %q", lastImg["a.log"], "hello world")
	}
	if !bytes.Equal(lastImg["b.dat"], []byte("bbb")) {
		t.Fatalf("b.dat after async commits = %q, want %q", lastImg["b.dat"], "bbb")
	}
	if _, ok := lastImg["b.tmp"]; ok {
		t.Fatal("renamed-away b.tmp still present in durable image")
	}
	for i, p := range pts {
		if p.Seq != pts[0].Seq+i {
			t.Fatalf("boundary sequence not monotone: %d follows %d", p.Seq, pts[i-1].Seq)
		}
	}
	f.Close(tl)
}

// TestCrashFSMatchesCrash cross-checks the recorder against the
// filesystem's own crash semantics: the image materialized from the
// final recorded boundary must byte-for-byte equal what ext4.Crash —
// the ground truth used by the fault-schedule explorer — leaves on
// disk at the same instant.
func TestCrashFSMatchesCrash(t *testing.T) {
	cfg := ext4.DefaultConfig()
	cfg.CommitInterval = 5 * vclock.Millisecond
	inner := ext4.New(cfg, ssd.New(ssd.PM883()))
	crash := vfs.NewCrashFS(inner)
	tl := vclock.NewTimeline(0)

	// A little filesystem life: rotating logs, a synced table, removes.
	var files []vfs.File
	for i := 0; i < 8; i++ {
		name := string(rune('a'+i)) + ".dat"
		f, err := crash.Create(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			if err := f.Append(tl, bytes.Repeat([]byte{byte('0' + i)}, 64)); err != nil {
				t.Fatal(err)
			}
			tl.WaitUntil(tl.Now().Add(200 * vclock.Microsecond))
		}
		if i%3 == 0 {
			if err := f.Sync(tl); err != nil {
				t.Fatal(err)
			}
		}
		files = append(files, f)
	}
	if err := crash.Remove(tl, "b.dat"); err != nil {
		t.Fatal(err)
	}
	if err := crash.SyncDir(tl); err != nil {
		t.Fatal(err)
	}

	pts := crash.Points()
	if len(pts) < 3 {
		t.Fatalf("only %d boundaries recorded", len(pts))
	}
	crashMatchesRecorder(t, "scripted life", inner, crash, tl)
	for _, f := range files {
		f.Close(tl)
	}
}

// crashMatchesRecorder cuts the power on the real filesystem now and
// holds what survives, byte for byte, against the image materialized
// from the recorder's last boundary (a commit Crash itself runs is
// recorded too, so "last" is read after the cut). It returns the
// surviving length of every surviving inode.
func crashMatchesRecorder(t *testing.T, what string, inner *ext4.FS, crash *vfs.CrashFS, tl *vclock.Timeline) map[int64]int64 {
	t.Helper()
	inner.Crash(tl.Now())
	img := map[string][]byte{}
	if pts := crash.Points(); len(pts) > 0 {
		var err error
		if img, err = crash.Materialize(pts[len(pts)-1]); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	survivors := inner.List(tl)
	if len(survivors) != len(img) {
		t.Fatalf("%s: crash left %d files %v, recorder says %d %v", what, len(survivors), survivors, len(img), imgNames(img))
	}
	surviving := make(map[int64]int64, len(survivors))
	for _, name := range survivors {
		data, err := inner.ReadFile(tl, name)
		if err != nil {
			t.Fatalf("%s: read %s after crash: %v", what, name, err)
		}
		if !bytes.Equal(data, img[name]) {
			t.Fatalf("%s: %s: crash image %d bytes, recorder image %d bytes", what, name, len(data), len(img[name]))
		}
		f, err := inner.Open(tl, name)
		if err != nil {
			t.Fatalf("%s: open %s after crash: %v", what, name, err)
		}
		surviving[f.Ino()] = int64(len(data))
		f.Close(tl)
	}
	return surviving
}

// crashScript is a seeded random filesystem life — create, append,
// fsync, link, rename (onto fresh and existing names), remove,
// check_commit, directory sync, idle time — with a model of what the
// namespace should hold beside it.
type crashScript struct {
	inner *ext4.FS
	crash *vfs.CrashFS
	tl    *vclock.Timeline
	cfg   ext4.Config

	names   map[string]int64   // cached namespace: name -> ino
	handles map[int64]vfs.File // one writable handle per created inode
	sizes   map[int64]int64
	nlink   map[int64]int
	// committedAt is the length an inode had when is_committed first
	// answered true for it.
	committedAt map[int64]int64
	checked     []int64 // inodes handed to check_commit, in order
}

// runCrashScript plays steps operations of the script for seed and
// stops early, right after the operation that recorded the stopAt-th
// commit boundary (stopAt 0: never). Same seed, same run.
func runCrashScript(t *testing.T, seed int64, steps, stopAt int) *crashScript {
	t.Helper()
	cfg := ext4.DefaultConfig()
	cfg.CommitInterval = 5 * vclock.Millisecond
	cfg.FlusherDelay = 3 * vclock.Millisecond
	inner := ext4.New(cfg, ssd.New(ssd.PM883()))
	crash := vfs.NewCrashFS(inner)
	s := &crashScript{inner: inner, crash: crash, tl: vclock.NewTimeline(0), cfg: cfg,
		names: map[string]int64{}, handles: map[int64]vfs.File{}, sizes: map[int64]int64{},
		nlink: map[int64]int{}, committedAt: map[int64]int64{}}
	rnd := rand.New(rand.NewSource(seed))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	fresh := 0
	freshName := func() string { fresh++; return fmt.Sprintf("n%04d", fresh) }
	// pick returns a random live name; the namespace is walked in
	// sorted order so that the choice depends on the seed alone.
	pick := func() (string, bool) {
		if len(s.names) == 0 {
			return "", false
		}
		live := make([]string, 0, len(s.names))
		for n := range s.names {
			live = append(live, n)
		}
		sort.Strings(live)
		return live[rnd.Intn(len(live))], true
	}
	unlink := func(name string) {
		s.nlink[s.names[name]]--
		delete(s.names, name)
	}
	for i := 0; i < steps; i++ {
		switch op := rnd.Intn(100); {
		case op < 12 && len(s.names) < 14: // create
			name := freshName()
			f, err := crash.Create(s.tl, name)
			must(err)
			s.names[name], s.handles[f.Ino()], s.nlink[f.Ino()] = f.Ino(), f, 1
		case op < 45: // append
			if name, ok := pick(); ok {
				ino := s.names[name]
				p := bytes.Repeat([]byte{byte('a' + ino%26)}, 1+rnd.Intn(6000))
				must(s.handles[ino].Append(s.tl, p))
				s.sizes[ino] += int64(len(p))
			}
		case op < 50: // fsync
			if name, ok := pick(); ok {
				must(s.handles[s.names[name]].Sync(s.tl))
			}
		case op < 55: // link
			if name, ok := pick(); ok {
				to := freshName()
				must(crash.Link(s.tl, name, to))
				s.names[to] = s.names[name]
				s.nlink[s.names[name]]++
			}
		case op < 62: // rename, one time in three onto another file's name
			if name, ok := pick(); ok {
				to := freshName()
				if over, ok := pick(); ok && rnd.Intn(3) == 0 && s.names[over] != s.names[name] {
					to = over
					unlink(over)
				}
				must(crash.Rename(s.tl, name, to))
				s.names[to] = s.names[name]
				delete(s.names, name)
			}
		case op < 68: // remove
			if name, ok := pick(); ok {
				must(crash.Remove(s.tl, name))
				unlink(name)
			}
		case op < 76: // check_commit
			if name, ok := pick(); ok {
				inner.CheckCommit(s.tl, s.names[name])
				s.checked = append(s.checked, s.names[name])
			}
		case op < 78:
			must(crash.SyncDir(s.tl))
		default: // idle, up to most of a commit interval
			s.tl.Advance(vclock.Duration(rnd.Int63n(int64(4 * vclock.Millisecond))))
		}
		// The tracker's poll: what it is told here it acts on.
		for _, ino := range s.checked {
			if _, seen := s.committedAt[ino]; !seen && inner.IsCommitted(s.tl, ino) {
				s.committedAt[ino] = s.sizes[ino]
			}
		}
		if stopAt > 0 && len(crash.Points()) >= stopAt {
			break
		}
	}
	return s
}

// crashAndCompare cuts the power now, holds the crash image against
// the recorder, then checks the promise behind is_committed: an inode
// reported committed, and still linked, is there at no less than the
// length it had at that answer.
func (s *crashScript) crashAndCompare(t *testing.T, what string) {
	t.Helper()
	surviving := crashMatchesRecorder(t, what, s.inner, s.crash, s.tl)
	for ino, want := range s.committedAt {
		if s.nlink[ino] == 0 {
			continue // unlinked since: its removal may or may not have committed
		}
		if got, ok := surviving[ino]; !ok || got < want {
			t.Fatalf("%s: inode %d answered is_committed at %d bytes, after the crash it has %d (present %v)",
				what, ino, want, got, ok)
		}
	}
}

// TestCrashFSMatchesCrashAtEveryBoundary replays a seeded script once
// per commit boundary it produces, cutting the power right after each:
// recorder and filesystem must agree on every one of them, whichever
// inodes the commit in question happened to carry.
func TestCrashFSMatchesCrashAtEveryBoundary(t *testing.T) {
	const steps = 400
	for _, seed := range []int64{1, 2, 3} {
		full := runCrashScript(t, seed, steps, 0)
		boundaries := len(full.crash.Points())
		if boundaries < 30 || len(full.committedAt) < 5 {
			t.Fatalf("seed %d: %d boundaries, %d inodes seen committed: the script exercises too little",
				seed, boundaries, len(full.committedAt))
		}
		// Left alone, every file becomes durable at full length: no
		// dirty inode is forgotten by writeback and the commit after it.
		for i := 0; i < 4; i++ {
			full.tl.Advance(full.cfg.CommitInterval)
			full.crash.Exists(full.tl, "x")
		}
		for name, ino := range full.names {
			if got := full.inner.DurableSize(name); got != full.sizes[ino] {
				t.Fatalf("seed %d: %s durable to %d of %d bytes after four idle intervals", seed, name, got, full.sizes[ino])
			}
		}
		full.crashAndCompare(t, fmt.Sprintf("seed %d, end of script", seed))

		for k := 1; k <= boundaries; k++ {
			runCrashScript(t, seed, steps, k).crashAndCompare(t, fmt.Sprintf("seed %d, boundary %d of %d", seed, k, boundaries))
		}
	}
}

func imgNames(img map[string][]byte) []string {
	names := make([]string, 0, len(img))
	for n := range img {
		names = append(names, n)
	}
	return names
}
