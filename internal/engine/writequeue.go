package engine

// Leader-based group commit, LevelDB-style. Concurrent Write callers
// enqueue on a writer queue; the front writer is the leader. The
// leader makes room, coalesces the queued batches (up to a byte cap)
// into ONE write-ahead-log record, assigns a contiguous sequence
// range, applies every batch to the memtable, publishes the new
// visible sequence, and wakes the followers. One WAL append — and in
// syncing modes one sync — thus covers the whole group.
//
// Virtual-time semantics: the leader charges the WAL append (and its
// own per-record CPU) to its private timeline exactly as the old
// serialized path did, so a group of one — the only shape the
// deterministic harness produces, since it drives clients one at a
// time — is byte-for-byte identical to the pre-queue engine.
// Followers' clocks jump to the leader's commit-completion instant
// (WaitUntil), mirroring how the harness models stalls, then pay
// their own per-record CPU.
//
// Crash atomicity: because a group is one WAL record, a torn tail
// drops whole groups — never a prefix of one — so batches are lost or
// kept atomically (and never split), strictly stronger than the
// single-batch guarantee the recovery tests assert.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"noblsm/internal/keys"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

const (
	// maxGroupCommitBytes caps a commit group (LevelDB's 1 MB rule).
	maxGroupCommitBytes = 1 << 20
	// smallBatchBytes: when the leader's own batch is small, the
	// group is capped near it so a tiny write's latency is not taxed
	// by megabytes of followers (LevelDB's 128 KB rule).
	smallBatchBytes = 128 << 10
	// stallGroupCommitBytes caps a commit group while L0 is over the
	// slowdown trigger: small groups keep the per-group throttle biting
	// every few writes instead of being amortized away by megabyte-
	// sized groups.
	stallGroupCommitBytes = 128 << 10
)

// writeReq is one queued Write call. Requests are pooled, each with
// its wake channel: a Write allocates neither.
type writeReq struct {
	batch *Batch
	tl    *vclock.Timeline

	// wake receives one signal from a leader, after it set either
	// promoted (this writer is the new leader) or err/commitEnd (a
	// leader committed this writer's batch as part of its group). It
	// has room for that one signal, so the leader never blocks.
	wake      chan struct{}
	promoted  bool
	err       error
	commitEnd vclock.Time

	// span is allocated when this op is attributed (telemetry on, or
	// WriteObserved); nil otherwise, so the unobserved path pays
	// nothing. A span is only ever touched by the goroutine that
	// enqueued the request — a leader never touches a follower's
	// span — so no synchronization is needed.
	span *obs.OpSpan
}

var writeReqPool = sync.Pool{New: func() any { return &writeReq{wake: make(chan struct{}, 1)} }}

// release returns w to the pool with its wake channel, empty again by
// then: a follower received its one signal, a leader got none. Only the
// goroutine that enqueued w calls it, once Write is done with it;
// nothing else holds w by then (the leader signalled it last).
func (w *writeReq) release() {
	if w != nil {
		*w = writeReq{wake: w.wake}
		writeReqPool.Put(w)
	}
}

// Write applies a batch atomically: WAL append (unsynced, as
// LevelDB's default), then memtable insertion. Write is safe for
// concurrent use; concurrent callers are group-committed.
func (db *DB) Write(tl *vclock.Timeline, b *Batch) error {
	w, err := db.writeObserved(tl, b, db.tel != nil)
	w.release()
	return err
}

// WriteObserved is Write plus the operation's attribution span, for
// callers (and tests) that need per-op phase durations rather than the
// aggregate timers. The span is populated whether or not telemetry is
// enabled; the aggregate plane only accumulates when it is.
func (db *DB) WriteObserved(tl *vclock.Timeline, b *Batch) (obs.OpSpan, error) {
	w, err := db.writeObserved(tl, b, true)
	var span obs.OpSpan
	if w != nil && w.span != nil {
		span = *w.span
	}
	w.release()
	return span, err
}

// writeObserved enqueues the batch and runs the group-commit protocol,
// threading an attribution span through the op when observed is set.
// It returns the writeReq so WriteObserved can read the finished span
// (nil when the op never reached the queue).
func (db *DB) writeObserved(tl *vclock.Timeline, b *Batch, observed bool) (*writeReq, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if db.readOnly.Load() {
		// Fail-fast rejection: a zero-duration stall with a cause tag.
		db.stall(tl, obs.StallReadOnly, tl.Now())
		return nil, fmt.Errorf("%w: %v", ErrReadOnly, db.BackgroundError())
	}
	if b.Count() == 0 {
		return nil, nil
	}
	// Admission control (governor.go): charge the batch's bytes and
	// pay any pacing delay before taking a queue slot, so backpressure
	// lands on every writer's own timeline instead of stacking up
	// behind the leader.
	db.admitWrite(tl, int64(b.Size()))
	w := writeReqPool.Get().(*writeReq)
	w.batch, w.tl = b, tl
	if observed {
		w.span = new(obs.OpSpan)
		w.span.Begin(tl.Now(), obs.PhaseWriteEnqueue)
	}
	db.wqMu.Lock()
	db.writeQ = append(db.writeQ, w)
	isLeader := len(db.writeQ) == 1
	db.wqMu.Unlock()
	if !isLeader {
		<-w.wake
		if !w.promoted {
			// A leader committed this batch for us: jump to the
			// commit's completion and pay our own per-record CPU.
			if w.err != nil {
				w.span.Finish(tl.Now())
				db.tel.ObserveWrite(w.span)
				return w, w.err
			}
			w.span.To(tl.Now(), obs.PhaseWriteGroupWait)
			tl.WaitUntil(w.commitEnd)
			w.span.To(tl.Now(), obs.PhaseWriteApply)
			tl.Advance(writeCPU * vclock.Duration(b.Count()))
			w.span.Finish(tl.Now())
			db.tel.ObserveWrite(w.span)
			return w, nil
		}
	}
	return w, db.commitGroup(w)
}

// commitGroup runs the leader protocol for the writer at the front of
// the queue: make room, build the group, commit it, pop it, wake the
// followers and promote the next leader.
func (db *DB) commitGroup(leader *writeReq) error {
	tl := leader.tl
	db.mu.Lock()
	leader.span.To(tl.Now(), obs.PhaseWriteThrottle)
	var err error
	if db.closed.Load() {
		err = ErrClosed
	} else if db.bgPermanent != nil {
		db.stall(tl, obs.StallReadOnly, tl.Now())
		err = fmt.Errorf("%w: %v", ErrReadOnly, db.bgPermanent)
	} else {
		err = db.makeRoomForWrite(tl, leader.span)
	}
	group := []*writeReq{leader}
	if err == nil {
		group = db.buildGroup(leader)
		err = db.commitBatches(tl, group)
	}
	commitEnd := tl.Now()
	db.mu.Unlock()
	leader.span.Finish(commitEnd)
	db.tel.ObserveWrite(leader.span)

	db.wqMu.Lock()
	db.writeQ = db.writeQ[len(group):]
	var next *writeReq
	if len(db.writeQ) == 0 {
		db.writeQ = nil // release the backing array
	} else {
		next = db.writeQ[0]
	}
	db.wqMu.Unlock()

	for _, w := range group[1:] {
		w.err = err
		w.commitEnd = commitEnd
		w.wake <- struct{}{}
	}
	if next != nil {
		next.promoted = true
		next.wake <- struct{}{}
	}
	return err
}

// stall records one foreground stall of the given cause, from `from`
// to tl's now, in the two places a stall is recorded: the cause-tagged
// ledger and a trace span carrying kvs. A zero-length stall — a
// fail-fast rejection — counts an occurrence and draws no span.
func (db *DB) stall(tl *vclock.Timeline, cause obs.StallCause, from vclock.Time, kvs ...obs.KV) {
	d := tl.Now().Sub(from)
	db.stalls.Observe(cause, tl.Now(), d)
	if db.trace != nil && d > 0 {
		db.trace.Span(obs.TidForeground, "stall", "stall."+cause.String(), from, tl.Now(),
			append(kvs, obs.KV{K: "cause", V: cause.String()})...)
	}
}

// waitStall waits tl out to target and records the wait, if any, as a
// stall of the given cause.
func (db *DB) waitStall(tl *vclock.Timeline, target vclock.Time, cause obs.StallCause, kvs ...obs.KV) {
	from := tl.Now()
	if tl.WaitUntil(target) > 0 {
		db.stall(tl, cause, from, kvs...)
	}
}

// makeRoomForWrite applies LevelDB's write throttling and hands a full
// memtable to the scheduler. sp is the leader's attribution span (nil
// when telemetry is off): throttling time stays in the open
// PhaseWriteThrottle, the handoff is reassigned to PhaseWriteFlush, and
// every wait is charged to the stall ledger under its cause.
func (db *DB) makeRoomForWrite(tl *vclock.Timeline, sp *obs.OpSpan) error {
	if db.walPoisoned {
		// The previous group's WAL append failed; the log may hold a
		// torn record, so rotate before appending anything else.
		from := tl.Now()
		err := db.rotatePoisonedWAL(tl)
		db.stall(tl, obs.StallWALRotate, from)
		if err != nil {
			return err
		}
	}
	// With the admission governor on, the per-group slowdown cliff is
	// retired: pacing already slowed every writer in proportion to
	// measured debt, so stacking the fixed penalty on top would
	// re-introduce the latency spike the governor exists to remove.
	// The rotation and L0-stop waits below remain as backstops.
	allowDelay := db.governor == nil
	s := &db.sched
	for {
		l0 := db.leveledL0Count()
		if allowDelay && l0 >= db.opts.L0SlowdownTrigger {
			// Soft limit: penalize each write by 1 ms to let the
			// background catch up.
			from := tl.Now()
			tl.Advance(slowdownDelay)
			db.stall(tl, obs.StallL0Slowdown, from, obs.KV{K: "l0_files", V: l0})
			allowDelay = false
			continue
		}
		if db.mem.ApproximateMemoryUsage() <= db.opts.WriteBufferSize {
			return nil
		}
		// The memtable is full. The previous immutable memtable must
		// finish flushing first (single background thread) — in real time
		// where a worker goroutine flushes it, then in virtual time — and
		// a crowded L0 hard-stops writes until compactions drain.
		for s.imm != nil && db.bgPermanent == nil {
			s.cond.Wait()
		}
		if db.bgPermanent != nil {
			return db.bgPermanent
		}
		db.waitStall(tl, s.minorDoneAt, obs.StallMemtableFull)
		if l0 = db.leveledL0Count(); l0 >= db.opts.L0StopTrigger {
			db.waitStall(tl, db.maxBgTime(), obs.StallCompactionBacklog, obs.KV{K: "l0_files", V: l0})
		}
		if db.trace != nil {
			db.trace.Instant(obs.TidForeground, "memtable", "memtable.rotate", tl.Now(),
				obs.KV{K: "bytes", V: db.mem.ApproximateMemoryUsage()})
		}
		// The WAL rotation and whatever of the flush runs on this
		// goroutine are the memtable handoff, not throttling.
		sp.To(tl.Now(), obs.PhaseWriteFlush)
		if err := db.rotateMemtable(tl); err != nil {
			return err
		}
		sp.To(tl.Now(), obs.PhaseWriteThrottle)
	}
}

// buildGroup collects the leader's batch plus queued followers up to
// the byte cap. Called with db.mu held (the stall-aware cap reads L0
// state); the queue prefix is stable because only the leader pops.
func (db *DB) buildGroup(leader *writeReq) []*writeReq {
	maxBytes := maxGroupCommitBytes
	if first := leader.batch.Size(); first <= smallBatchBytes {
		maxBytes = first + smallBatchBytes
	}
	if db.leveledL0Count() >= db.opts.L0SlowdownTrigger {
		maxBytes = min(maxBytes, stallGroupCommitBytes)
	}
	db.wqMu.Lock()
	defer db.wqMu.Unlock()
	group := make([]*writeReq, 0, len(db.writeQ))
	total := 0
	for _, w := range db.writeQ {
		if len(group) > 0 && total+w.batch.Size() > maxBytes {
			break
		}
		group = append(group, w)
		total += w.batch.Size()
	}
	return group
}

// commitBatches performs the group's single WAL append and memtable
// application under db.mu. The leader's timeline pays the WAL and its
// own CPU; the visible sequence is published only after every batch
// of the group is in the memtable, so readers never observe a
// partially applied group.
func (db *DB) commitBatches(tl *vclock.Timeline, group []*writeReq) error {
	group[0].span.To(tl.Now(), obs.PhaseWriteWAL)
	base := db.lastSeq + 1
	rep := group[0].batch.rep
	if len(group) == 1 {
		group[0].batch.setSeq(base)
	} else {
		size := batchHeaderLen
		for _, w := range group {
			size += len(w.batch.rep) - batchHeaderLen
		}
		merged := make([]byte, batchHeaderLen, size)
		var total uint32
		seq := base
		for _, w := range group {
			w.batch.setSeq(seq)
			seq += keys.SeqNum(w.batch.Count())
			total += w.batch.Count()
			merged = append(merged, w.batch.rep[batchHeaderLen:]...)
		}
		binary.LittleEndian.PutUint64(merged[0:8], uint64(base))
		binary.LittleEndian.PutUint32(merged[8:12], total)
		rep = merged
	}
	var totalCount uint32
	for _, w := range group {
		totalCount += w.batch.Count()
	}
	if err := db.wal.AddRecord(tl, rep); err != nil {
		// AddRecord's contract: the writer rewound, but the file may hold
		// a torn record, so the log is poisoned and the next commit
		// rotates it (makeRoomForWrite). lastSeq has not advanced — the
		// group was never acked — so a retry reassigns the same range.
		// The append is outside the failure rule (bgerror.go): it cannot
		// run again in place, so the client's write fails, and
		// walFailures is a budget across consecutive writes, not a
		// retry loop.
		db.walPoisoned = true
		db.walFailures++
		if db.walFailures > bgMaxRetries {
			db.setPermanentLocked(tl, fmt.Errorf("engine: wal append: %w", err))
		}
		return err
	}
	db.walFailures = 0
	group[0].span.To(tl.Now(), obs.PhaseWriteApply)
	db.lastSeq += keys.SeqNum(totalCount)
	for _, w := range group {
		if err := w.batch.applyTo(db.mem); err != nil {
			return err
		}
	}
	db.visibleSeq.Store(db.lastSeq)
	tl.Advance(writeCPU * vclock.Duration(group[0].batch.Count()))
	db.m.userBytes.Add(int64(len(rep)))
	for _, w := range group {
		w.batch.forEach(func(kind keys.Kind, key, _ []byte, _ uint32) error {
			if kind == keys.KindDelete {
				db.m.deletes.Inc()
			} else {
				db.m.puts.Inc()
			}
			if db.hot != nil {
				db.hot.touch(key)
			}
			return nil
		})
	}
	db.m.groupCommitSize.Observe(int64(len(group)))
	if db.tracker != nil {
		db.tracker.MaybePoll(tl)
	}
	return nil
}
