package engine

// The background scheduler: LevelDB's one background thread (DESIGN.md,
// "Background scheduler"). A writer that fills the memtable parks it in
// the single immutable slot and kicks the work loop, which flushes the
// parked memtable with retry, drains size- and seek-triggered
// compactions, and stops. Two executors run that one loop and differ in
// two places only: the inline one runs it on the kicker's goroutine with
// db.mu held, its cost accruing on the virtual background timelines —
// deterministic, as the virtual-time experiments require; the goroutine
// one (Options.AsyncCompaction) runs it on a worker goroutine that drops
// db.mu around table builds and merge loops (db.unlocked). Either way at
// most one party — the loop, or a CompactRange that claimed sched.active
// — installs compactions at a time.

import (
	"sync"

	"noblsm/internal/memtable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// scheduler is the background work state, all under db.mu.
type scheduler struct {
	// goroutine selects the executor: a worker goroutine runs the loop
	// and may drop db.mu, not the kicker's.
	goroutine bool

	// imm is the parked memtable; its flush starts at flushStartAt and
	// its edit names flushLogNumber. cond is signaled when the slot
	// clears, the loop stops or the DB goes read-only.
	imm            *memtable.MemTable
	flushLogNumber uint64
	flushStartAt   vclock.Time
	cond           *sync.Cond

	// active is set while the loop runs or CompactRange stands in for
	// it; kickAt is the virtual instant of the latest kick, where work
	// that follows no flush starts.
	active bool
	kickAt vclock.Time

	// fileToCompact is the seek-exhausted file a reader recorded.
	fileToCompact      *version.FileMeta
	fileToCompactLevel int

	// bg are the background compaction timelines. minorDoneAt is when
	// the latest flush completes in virtual time (the next rotation
	// waits for it); writeWorkDoneAt is when the last write-triggered
	// work — flush or size compaction — does (seek compactions wait for
	// it, chargeSeek).
	bg              []*vclock.Timeline
	minorDoneAt     vclock.Time
	writeWorkDoneAt vclock.Time
}

// parkMemtable moves the live memtable into the free immutable slot and
// starts an empty one; the flush's edit will name logNumber, making the
// logs below it obsolete. Caller holds db.mu.
func (db *DB) parkMemtable(tl *vclock.Timeline, logNumber uint64) {
	s := &db.sched
	s.imm = db.mem
	db.memSeed++
	db.mem = memtable.New(db.memSeed)
	s.flushLogNumber, s.flushStartAt = logNumber, tl.Now()
	// Readers see the parked memtable until its table is in the version.
	db.publishReadState()
}

// rotateMemtable parks the live memtable behind a fresh WAL and kicks
// the loop. With the inline executor the flush is over on return, so a
// permanent error it hit fails the very Write that filled the memtable.
// Caller holds db.mu.
func (db *DB) rotateMemtable(tl *vclock.Timeline) error {
	if err := db.newWAL(tl); err != nil {
		return err
	}
	db.parkMemtable(tl, db.walNumber)
	db.kick(tl.Now())
	return db.bgPermanent
}

// kick starts the work loop unless it is running, at virtual instant
// at. Caller holds db.mu.
func (db *DB) kick(at vclock.Time) {
	s := &db.sched
	s.kickAt = at
	if s.active || db.closed.Load() {
		return
	}
	s.active = true
	if !s.goroutine {
		db.backgroundWork()
		return
	}
	go func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		db.backgroundWork()
	}()
}

// unlocked runs fn, a heavy section that touches no version state, with
// db.mu released where another goroutine can use it. Caller holds db.mu.
func (db *DB) unlocked(fn func() error) error {
	if !db.sched.goroutine {
		return fn()
	}
	db.mu.Unlock()
	defer db.mu.Lock()
	return fn()
}

// backgroundWork is the work loop: flush the parked memtable, then run
// pending major compactions, until neither is left or the DB went
// read-only. A failed flush leaves its memtable parked: its records live
// only there and in the rotated-out WAL. Every transition happens under
// db.mu, so either the loop sees a newly parked memtable before it stops
// or the parking writer sees active==false and starts it again. Caller
// holds db.mu.
func (db *DB) backgroundWork() {
	s := &db.sched
	for db.bgPermanent == nil {
		if s.imm != nil {
			tl := vclock.NewTimeline(s.flushStartAt)
			flush := func() error { return db.minorCompaction(tl, s.imm, s.flushLogNumber) }
			if db.retryLocked(tl, "engine: flush", flush) != nil {
				break
			}
			s.imm = nil
			db.publishReadState()
			s.cond.Broadcast()
			// The flush may have tipped a level over its capacity; that
			// compaction starts where the flush ended.
			db.runCompactions(s.bg[0])
			continue
		}
		if (s.fileToCompact == nil && !db.compactionPending()) || db.closed.Load() {
			break
		}
		// A reader's seek request, or a level left over pressure by a
		// flush that preempted the majors, a heal or a crash.
		db.runCompactions(vclock.NewTimeline(s.kickAt))
	}
	s.active = false
	s.cond.Broadcast()
}

// compactionPending reports whether any level is over size pressure —
// a pure Score scan that, unlike PickCompaction, moves no compaction
// pointers. Caller holds db.mu.
func (db *DB) compactionPending() bool {
	for level := 0; level < version.NumLevels-1; level++ {
		if version.Score(db.current, level, db.opts.Picker) > 0.99999 {
			return true
		}
	}
	return false
}

// waitIdle blocks until the loop has stopped — the slot is then empty
// unless the DB went read-only — and reports the permanent background
// error, if any. Caller holds db.mu.
func (db *DB) waitIdle() error {
	for db.sched.active {
		db.sched.cond.Wait()
	}
	return db.bgPermanent
}
