package engine

// Background-error state machine and self-healing reads.
//
// Every background failure is classified:
//
//   - transient errors (vfs.IsTransient — the fault-injection plane's
//     recoverable I/O errors) are retried with capped exponential
//     backoff charged to the failing operation's virtual timeline;
//   - permanent errors flip the DB into read-only mode: writes fail
//     fast with ErrReadOnly, reads keep serving, Close reports the
//     error, and DB.Property("noblsm.background-errors") renders the
//     whole state machine;
//   - sstable corruption (sstable.ErrCorrupt) is routed to the
//     self-healing path (heal.go): if the corrupt table is a
//     compaction successor whose dependency has not journal-committed,
//     NobLSM's retained shadow predecessors still hold every byte of
//     its data, so the version is rolled back onto them, the bad
//     successor is quarantined, and the compaction is redone.
//
// A WAL append failure poisons the current log (wal.AddRecord's
// contract: the framing can no longer be trusted), and the next commit
// rotates to a fresh log before appending. A MANIFEST append failure
// is recovered by rewriting the manifest as a snapshot on a fresh file
// (recoverManifest) — retry-in-place is unsound for the same framing
// reason.

import (
	"errors"
	"fmt"

	"noblsm/internal/memtable"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// ErrReadOnly is returned by writes after a permanent background error
// put the database into read-only mode. The wrapped cause is available
// via DB.BackgroundError and the "noblsm.background-errors" property.
var ErrReadOnly = errors.New("engine: database is read-only after background error")

const (
	// bgRetryBase is the first retry backoff; each retry doubles it up
	// to bgRetryCap. All delays are virtual time on the failing
	// operation's timeline, so the default deterministic engine stays
	// deterministic under injected faults.
	bgRetryBase = 1 * vclock.Millisecond
	bgRetryCap  = 256 * vclock.Millisecond
	// bgMaxRetries bounds retries of one logical operation before the
	// error escalates to permanent.
	bgMaxRetries = 8
)

// bgBackoff returns the backoff before retry attempt (0-based).
func bgBackoff(attempt int) vclock.Duration {
	d := bgRetryBase
	for i := 0; i < attempt && d < bgRetryCap; i++ {
		d *= 2
	}
	if d > bgRetryCap {
		d = bgRetryCap
	}
	return d
}

// tableError attributes an I/O or corruption error to one table so the
// read path and the compaction scheduler can route it to the
// self-healing machinery.
type tableError struct {
	num uint64
	err error
}

func (e *tableError) Error() string {
	return fmt.Sprintf("engine: table %06d: %v", e.num, e.err)
}

func (e *tableError) Unwrap() error { return e.err }

// setPermanentLocked records the first permanent background error and
// flips the DB read-only. Idempotent; caller holds db.mu.
func (db *DB) setPermanentLocked(tl *vclock.Timeline, err error) {
	if db.bgPermanent != nil {
		return
	}
	db.bgPermanent = err
	db.readOnly.Store(true)
	db.m.bgPermanentErrors.Inc()
	db.m.readOnlyGauge.Set(1)
	// Writers parked on the immutable-memtable slot must observe the
	// error instead of waiting forever.
	db.sched.cond.Broadcast()
	if db.trace != nil {
		db.trace.Instant(obs.TidForeground, "error", "bg.permanent", tl.Now(),
			obs.KV{K: "error", V: err.Error()})
	}
}

// noteTransientLocked counts one transient background error and the
// retry it provokes, then charges the backoff to tl. Caller holds
// db.mu.
func (db *DB) noteTransientLocked(tl *vclock.Timeline, attempt int) {
	db.m.bgTransientErrors.Inc()
	db.m.bgRetries.Inc()
	tl.Advance(bgBackoff(attempt))
}

// BackgroundError reports the permanent background error that put the
// database into read-only mode, or nil.
func (db *DB) BackgroundError() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bgPermanent
}

// ReadOnly reports whether a permanent background error has put the
// database into read-only mode.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// retryLocked runs op until it succeeds, charging a capped exponential
// backoff to tl after each transient failure (noteTransientLocked). A
// failure that is not transient, or a transient one once bgMaxRetries
// retries are spent, becomes the permanent background error, wrapped as
// "prefix: cause"; an op that returns the permanent error itself ends
// the loop with it as is. Caller holds db.mu.
func (db *DB) retryLocked(tl *vclock.Timeline, prefix string, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || err == db.bgPermanent {
			return err
		}
		if !vfs.IsTransient(err) || attempt >= bgMaxRetries {
			err = fmt.Errorf("%s: %w", prefix, err)
			db.setPermanentLocked(tl, err)
			return err
		}
		db.noteTransientLocked(tl, attempt)
	}
}

// flushWithRetry runs a minor compaction with capped exponential
// backoff on transient errors. It fails only with the permanent error,
// its own or the one that already made the DB read-only; the caller
// must then keep the immutable memtable parked: its records survive in
// the rotated-out WAL, so dropping it would silently lose acked writes
// — exactly the failure mode this machinery replaces. Caller holds
// db.mu.
func (db *DB) flushWithRetry(tl *vclock.Timeline, imm *memtable.MemTable, logNumber uint64) error {
	return db.retryLocked(tl, "engine: flush", func() error {
		err := db.minorCompaction(tl, imm, logNumber)
		if err != nil && db.bgPermanent != nil {
			return db.bgPermanent
		}
		return err
	})
}

// rotatePoisonedWAL replaces a write-ahead log whose last append
// failed. The failed append may have left a torn record at the log's
// tail; its group was never acked or applied to the memtable, so after
// rotation the damage is a dead tail artifact that recovery truncates
// silently. Caller holds db.mu.
func (db *DB) rotatePoisonedWAL(tl *vclock.Timeline) error {
	err := db.retryLocked(tl, "engine: wal rotation after poisoned append", func() error { return db.newWAL(tl) })
	if err != nil {
		return err
	}
	db.walPoisoned = false
	db.m.walPoisonRotations.Inc()
	return nil
}

// recoverManifest replaces the MANIFEST after a failed append. The
// writer cannot retry in place: the file may hold a partial record, so
// any further append would be misframed against the on-disk block
// phase and the reader would drop every subsequent edit at block
// granularity. The already-applied in-memory version is snapshotted
// onto a fresh manifest file instead (rewriteManifest syncs it and
// durably repoints CURRENT). Caller holds db.mu.
func (db *DB) recoverManifest(tl *vclock.Timeline, cause error) error {
	if errors.Is(cause, vfs.ErrClosed) {
		// The append failed because the handle is gone — a closed DB
		// or a crash-severed filesystem (the fault plane's power-cut
		// model invalidates every open handle). Rewriting here would
		// durably install this process's post-crash in-memory state —
		// a version that may reference never-synced tables — onto the
		// remounted filesystem, racing the recovery that owns it. Go
		// permanently read-only instead; recovery rebuilds from disk.
		err := fmt.Errorf("engine: manifest append on severed handle: %w", cause)
		db.setPermanentLocked(tl, err)
		return err
	}
	prefix := fmt.Sprintf("engine: manifest rewrite after append failure (%v)", cause)
	if err := db.retryLocked(tl, prefix, func() error { return db.rewriteManifest(tl, db.logNumber) }); err != nil {
		return err
	}
	db.removeSupersededManifests(tl)
	if db.tracker != nil {
		// The fresh manifest begins with a synced snapshot: every edit so
		// far is durable, so all logs below the snapshot's log number are
		// immediately safe to delete. For the same reason, and because the
		// snapshot names only tables the rewrite made durable, no shadow
		// is needed any more.
		db.logGates = append(db.logGates[:0], logGate{Log: db.logNumber, ManifestOff: 0})
		db.tracker.ReleaseAll(tl)
	}
	return nil
}

// retryFileSync retries a file sync on transient errors, escalating to
// permanent on exhaustion. Caller holds db.mu.
func (db *DB) retryFileSync(tl *vclock.Timeline, f vfs.File, what string) error {
	return db.retryLocked(tl, "engine: "+what+" sync", func() error { return f.Sync(tl) })
}
