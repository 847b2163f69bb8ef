package core

import (
	"sync"
	"testing"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// counter reads a counter of r by name; a name r does not hold fails
// the test, so a typo cannot read as 0.
func counter(t *testing.T, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Counters()[name]
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return v
}

// fakeSys is a scriptable Syscalls implementation.
type fakeSys struct {
	mu        sync.Mutex
	pending   map[int64]bool
	committed map[int64]bool
	checks    int
}

func newFakeSys() *fakeSys {
	return &fakeSys{pending: map[int64]bool{}, committed: map[int64]bool{}}
}

func (f *fakeSys) CheckCommit(tl *vclock.Timeline, inos ...int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ino := range inos {
		f.pending[ino] = true
	}
}

func (f *fakeSys) IsCommitted(tl *vclock.Timeline, ino int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checks++
	return f.committed[ino]
}

func (f *fakeSys) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.committed[ino] {
		return 1 << 40
	}
	return 0
}

func (f *fakeSys) commit(inos ...int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ino := range inos {
		if f.pending[ino] {
			delete(f.pending, ino)
			f.committed[ino] = true
		}
	}
}

// newTracker is a tracker on sys polling every 5 s, its counters in a
// private registry and no tracing.
func newTracker(sys Syscalls, released func(tl *vclock.Timeline, num uint64)) *Tracker {
	return NewTrackerObserved(sys, 5*vclock.Second, released, nil, nil)
}

// register records preds→succs with no manifest condition and no plan.
func register(tr *Tracker, tl *vclock.Timeline, preds []uint64, succs []Succ) {
	tr.RegisterWithManifest(tl, preds, succs, 0, 0, nil)
}

type removals struct {
	mu   sync.Mutex
	nums []uint64
}

func (r *removals) fn(tl *vclock.Timeline, num uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nums = append(r.nums, num)
}

func (r *removals) list() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.nums...)
}

func TestRegisterProtectsPredecessors(t *testing.T) {
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)

	preds := []uint64{10, 11}
	succs := []Succ{{Number: 20, Ino: 200}, {Number: 21, Ino: 201}}
	register(tr, tl, preds, succs)

	if !tr.Protected(10) || !tr.Protected(11) {
		t.Fatal("predecessors not protected")
	}
	if tr.Protected(20) {
		t.Fatal("successor spuriously protected")
	}
	if tr.PendingDeps() != 1 {
		t.Fatalf("deps = %d", tr.PendingDeps())
	}
	if !sys.pending[200] || !sys.pending[201] {
		t.Fatal("successors not handed to check_commit")
	}
}

func TestPollResolvesOnlyWhenAllSuccessorsCommit(t *testing.T) {
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)
	register(tr, tl,
		[]uint64{1},
		[]Succ{{Number: 2, Ino: 20}, {Number: 3, Ino: 30}})

	sys.commit(20) // only one of two successors
	tr.Poll(tl)
	if tr.PendingDeps() != 1 || len(rm.list()) != 0 {
		t.Fatal("dependency resolved with an uncommitted successor")
	}
	if !tr.Protected(1) {
		t.Fatal("protection dropped early")
	}

	sys.commit(30)
	tr.Poll(tl)
	if tr.PendingDeps() != 0 {
		t.Fatal("dependency not resolved after full commit")
	}
	if got := rm.list(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("removed %v", got)
	}
	if tr.Protected(1) {
		t.Fatal("protection not dropped")
	}
}

func TestPollDoesNotRecheckCommittedSuccessors(t *testing.T) {
	sys := newFakeSys()
	tr := newTracker(sys, func(*vclock.Timeline, uint64) {})
	tl := vclock.NewTimeline(0)
	register(tr, tl, nil, []Succ{{Number: 2, Ino: 20}, {Number: 3, Ino: 30}})
	sys.commit(20)
	tr.Poll(tl) // 20 observed committed, 30 not
	checksAfterFirst := sys.checks
	tr.Poll(tl) // must only ask about 30
	if sys.checks != checksAfterFirst+1 {
		t.Fatalf("second poll made %d checks, want 1", sys.checks-checksAfterFirst)
	}
}

// TestPollStopsAtFirstUncommittedSuccessor: a dependency with an
// uncommitted successor cannot resolve in this poll, so the successors
// behind it are not asked about — in registration order, whichever of
// them committed first.
func TestPollStopsAtFirstUncommittedSuccessor(t *testing.T) {
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)
	register(tr, tl, []uint64{1},
		[]Succ{{Number: 2, Ino: 20}, {Number: 3, Ino: 30}, {Number: 4, Ino: 40}})

	polled := func(want int, when string) {
		t.Helper()
		before := sys.checks
		tr.Poll(tl)
		if got := sys.checks - before; got != want {
			t.Fatalf("%s: poll made %d is_committed calls, want %d", when, got, want)
		}
	}
	polled(1, "nothing committed")
	sys.commit(30, 40)
	polled(1, "later successors committed, the first not")
	if tr.PendingDeps() != 1 || len(rm.list()) != 0 {
		t.Fatal("dependency resolved with its first successor uncommitted")
	}
	sys.commit(20)
	polled(3, "all committed")
	if tr.PendingDeps() != 0 || len(rm.list()) != 1 {
		t.Fatalf("deps=%d removed=%v after every successor committed", tr.PendingDeps(), rm.list())
	}
}

// TestOverlappingPollsNeverSkipASuccessor runs polls from several
// goroutines (every reader calls MaybePoll) while successors commit
// one by one: a predecessor may be reclaimed only once the last
// successor of its dependency has committed.
func TestOverlappingPollsNeverSkipASuccessor(t *testing.T) {
	const deps, succsPerDep = 40, 6
	sys := newFakeSys()
	lastIno := func(dep uint64) int64 { return int64(dep*100 + succsPerDep - 1) }
	tr := newTracker(sys, func(_ *vclock.Timeline, num uint64) {
		sys.mu.Lock()
		defer sys.mu.Unlock()
		if !sys.committed[lastIno(num)] {
			t.Errorf("predecessor %d reclaimed before its last successor committed", num)
		}
	})
	for d := uint64(1); d <= deps; d++ {
		succs := make([]Succ, succsPerDep)
		for i := range succs {
			succs[i] = Succ{Number: d*100 + uint64(i), Ino: int64(d*100) + int64(i)}
		}
		register(tr, vclock.NewTimeline(0), []uint64{d}, succs)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := vclock.NewTimeline(0)
			for {
				select {
				case <-done:
					return
				default:
					tr.Poll(tl)
				}
			}
		}()
	}
	for i := 0; i < succsPerDep; i++ {
		for d := int64(1); d <= deps; d++ {
			sys.commit(d*100 + int64(i))
		}
	}
	close(done)
	wg.Wait()
	tr.Poll(vclock.NewTimeline(0))
	if tr.PendingDeps() != 0 {
		t.Fatalf("%d dependencies unresolved with every successor committed", tr.PendingDeps())
	}
}

func TestRegisterWithNoSuccessorsReclaimsImmediately(t *testing.T) {
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)
	register(tr, tl, []uint64{9}, nil)
	if got := rm.list(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("removed %v", got)
	}
	if tr.PendingDeps() != 0 {
		t.Fatal("empty dependency left pending")
	}
}

func TestSharedPredecessorAcrossDependencies(t *testing.T) {
	// A file can be predecessor of two concurrent compaction records
	// (e.g. registered again before the first resolves); it must stay
	// protected until both resolve.
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)
	shared := uint64(5)
	register(tr, tl, []uint64{shared}, []Succ{{Number: 6, Ino: 60}})
	register(tr, tl, []uint64{shared}, []Succ{{Number: 7, Ino: 70}})

	sys.commit(60)
	tr.Poll(tl)
	if !tr.Protected(5) {
		t.Fatal("shared predecessor unprotected while second dep pending")
	}
	if len(rm.list()) != 0 {
		t.Fatal("shared predecessor removed early")
	}
	sys.commit(70)
	tr.Poll(tl)
	if tr.Protected(5) {
		t.Fatal("shared predecessor still protected")
	}
	if got := rm.list(); len(got) != 1 {
		t.Fatalf("removed %v, want exactly once", got)
	}
}

func TestMaybePollHonorsInterval(t *testing.T) {
	sys := newFakeSys()
	tr := newTracker(sys, func(*vclock.Timeline, uint64) {})
	tl := vclock.NewTimeline(0)
	register(tr, tl, nil, []Succ{{Number: 1, Ino: 10}})

	tr.MaybePoll(tl) // interval elapsed since lastPoll=0? now=0 >= 0+5s is false... first poll waits
	if sys.checks != 0 {
		t.Fatalf("polled before the interval: %d checks", sys.checks)
	}
	tl.Advance(5 * vclock.Second)
	tr.MaybePoll(tl)
	if sys.checks != 1 {
		t.Fatalf("did not poll after the interval: %d checks", sys.checks)
	}
	tl.Advance(vclock.Second)
	tr.MaybePoll(tl)
	if sys.checks != 1 {
		t.Fatal("polled again before the next interval")
	}
}

func TestMaybePollSkipsWhenIdle(t *testing.T) {
	sys := newFakeSys()
	r := obs.NewRegistry()
	tr := NewTrackerObserved(sys, vclock.Second, func(*vclock.Timeline, uint64) {}, r, nil)
	tl := vclock.NewTimeline(0)
	tl.Advance(10 * vclock.Second)
	tr.MaybePoll(tl)
	if counter(t, r, "tracker.polls") != 0 {
		t.Fatal("polled with no dependencies")
	}
}

func TestStatsAccumulate(t *testing.T) {
	sys := newFakeSys()
	r := obs.NewRegistry()
	tr := NewTrackerObserved(sys, vclock.Second, func(*vclock.Timeline, uint64) {}, r, nil)
	tl := vclock.NewTimeline(0)
	for i := int64(0); i < 5; i++ {
		register(tr, tl, []uint64{uint64(i)},
			[]Succ{{Number: uint64(100 + i), Ino: 100 + i}})
	}
	for i := int64(0); i < 5; i++ {
		sys.commit(100 + i)
	}
	tr.Poll(tl)
	for name, want := range map[string]int64{"tracker.registered": 5, "tracker.resolved": 5,
		"tracker.preds_deleted": 5, "tracker.polls": 1, "tracker.syscall_checks": 5} {
		if got := counter(t, r, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestZeroPollIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTrackerObserved(newFakeSys(), 0, nil, nil, nil)
}

func TestCancelForClaimsDependency(t *testing.T) {
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)

	preds := []uint64{1, 2}
	succs := []Succ{{Number: 10, Ino: 100}, {Number: 11, Ino: 101}}
	tr.RegisterWithManifest(tl, preds, succs, 0, 0, "plan")

	if !tr.Protected(1) || !tr.Protected(2) {
		t.Fatal("predecessors not protected after Register")
	}
	if _, ok := tr.DepFor(99); ok || tr.CancelFor(99) {
		t.Fatal("an unknown successor has a dependency to claim")
	}
	if plan, ok := tr.DepFor(10); !ok || plan != "plan" {
		t.Fatalf("DepFor(10) = %v, %v; want the registered plan", plan, ok)
	}
	if !tr.CancelFor(11) {
		t.Fatal("CancelFor failed to claim a live dependency")
	}
	if _, ok := tr.DepFor(10); ok {
		t.Fatal("the plan outlived its dependency")
	}
	if tr.Protected(1) || tr.Protected(2) {
		t.Fatal("protection not released by CancelFor")
	}
	if got := rm.list(); len(got) != 0 {
		t.Fatalf("CancelFor must not reclaim files, removed %v", got)
	}
	if tr.PendingDeps() != 0 {
		t.Fatal("dependency still pending after CancelFor")
	}
	// The claim is exclusive: a second claim via any successor of the
	// same dependency fails, and a later poll resolves nothing.
	if tr.CancelFor(10) {
		t.Fatal("dependency claimed twice")
	}
	sys.commit(100, 101)
	tr.Poll(tl)
	if got := rm.list(); len(got) != 0 {
		t.Fatalf("poll reclaimed files of a cancelled dependency: %v", got)
	}
}

func TestCancelForSharedPredecessorStaysProtected(t *testing.T) {
	sys := newFakeSys()
	var rm removals
	tr := newTracker(sys, rm.fn)
	tl := vclock.NewTimeline(0)

	shared := []uint64{1}
	register(tr, tl, shared, []Succ{{Number: 10, Ino: 100}})
	register(tr, tl, shared, []Succ{{Number: 11, Ino: 101}})

	if !tr.CancelFor(10) {
		t.Fatal("CancelFor failed")
	}
	if !tr.Protected(1) {
		t.Fatal("predecessor shared with a live dependency lost protection")
	}
	if tr.PendingDeps() != 1 {
		t.Fatalf("pending deps = %d, want 1", tr.PendingDeps())
	}
}
