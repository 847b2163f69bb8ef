package engine

// Background-error state machine and the failure rule.
//
// One rule decides what every operation that meets a fault does next
// (tally.next):
//
//   - a corrupt table (sstable.ErrCorrupt, named by a tableError) is
//     healed if the recovery planner allows it (heal.go): a compaction
//     successor whose dependency has not journal-committed still has
//     NobLSM's retained shadow predecessors, so the version is rolled
//     back onto them, the bad successor quarantined, and the work runs
//     again — at most bgMaxRetries+1 heals per operation;
//   - otherwise a transient fault (vfs.IsTransient — the fault plane's
//     recoverable I/O errors) is backed off with bgBackoff, virtual
//     time charged to the failing operation's timeline, and the work
//     runs again — at most bgMaxRetries retries per operation;
//   - anything else is given up.
//
// It has two entry points, which differ only in what the lock and the
// counters require. absorbLocked serves work under db.mu — the work
// loop's flush (through retryLocked) and compactions, CompactRange's
// compactions, WAL rotation, the manifest rewrite and sync: it heals
// through healTableLocked, counts engine.bg.transient_errors and
// engine.bg.retries, and turns a failure it gives up on into the
// permanent background error, which flips the DB read-only (writes
// fail fast with ErrReadOnly, reads keep serving, Close reports the
// error; DB.Property("noblsm.background-errors") renders the state).
// Once the store is read-only it absorbs nothing. absorbRead serves
// Get and ScrubTables, which hold no lock: it heals through
// healFromRead and counts engine.read_retries; a read it gives up on
// returns its error.
//
// Two paths stay outside the rule. A failed WAL append cannot be
// retried in place — the log's framing may be torn — so the client's
// write fails, the log is poisoned and the next write rotates it
// (commitBatches keeps its own budget across writes). A scan
// (engine.Iterator) returns a read error to its caller. A MANIFEST
// append failure is recovered by rewriting the manifest as a snapshot
// on a fresh file (recoverManifest), for the same framing reason.

import (
	"errors"
	"fmt"

	"noblsm/internal/obs"
	"noblsm/internal/sstable"
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

// tally counts what the failure rule has spent on one operation.
type tally struct{ heals, retries int }

// next is the failure rule for err, the operation's latest failure: it
// heals the corrupt table err names through heal, else backs a
// transient fault off through backoff, and reports whether the
// operation runs again.
func (t *tally) next(err error, heal func(num uint64) bool, backoff func(vclock.Duration)) bool {
	var te *tableError
	if t.heals <= bgMaxRetries && errors.Is(err, sstable.ErrCorrupt) && errors.As(err, &te) && heal(te.num) {
		t.heals++
		return true
	}
	if !vfs.IsTransient(err) || t.retries >= bgMaxRetries {
		return false
	}
	backoff(bgBackoff(t.retries))
	t.retries++
	return true
}

// absorbLocked applies the failure rule to err, met by work under db.mu
// whose tally is t, charging a backoff to tl. It returns nil when the
// work runs again, else the permanent background error: the one the
// store already has, or err made permanent as "prefix: err". Caller
// holds db.mu.
func (db *DB) absorbLocked(tl *vclock.Timeline, t *tally, prefix string, err error) error {
	if db.bgPermanent != nil {
		return db.bgPermanent
	}
	if t.next(err, func(num uint64) bool { return db.healTableLocked(tl, num) }, func(d vclock.Duration) {
		db.m.bgTransientErrors.Inc()
		db.m.bgRetries.Inc()
		tl.Advance(d)
	}) {
		return nil
	}
	err = fmt.Errorf("%s: %w", prefix, err)
	db.setPermanentLocked(tl, err)
	return err
}

// absorbRead applies the failure rule to err, met by a read whose tally
// is t, and reports whether the read runs again. The heal is spent in
// sp's PhaseReadHeal and the backoff in its PhaseReadBackoff (sp may be
// nil).
func (db *DB) absorbRead(tl *vclock.Timeline, t *tally, err error, sp *obs.OpSpan) bool {
	again := t.next(err, func(num uint64) bool {
		sp.To(tl.Now(), obs.PhaseReadHeal)
		healed := db.healFromRead(tl, num)
		sp.To(tl.Now(), obs.PhaseReadMem)
		return healed
	}, func(d vclock.Duration) {
		sp.To(tl.Now(), obs.PhaseReadBackoff)
		tl.Advance(d)
		sp.To(tl.Now(), obs.PhaseReadMem)
	})
	if again {
		db.m.readRetries.Inc()
	}
	return again
}

// retryLocked runs op, work under db.mu, until it succeeds or the
// failure rule gives up on it; it then returns the permanent error.
// Caller holds db.mu.
func (db *DB) retryLocked(tl *vclock.Timeline, prefix string, op func() error) error {
	var t tally
	for {
		err := op()
		if err == nil {
			return nil
		}
		if err = db.absorbLocked(tl, &t, prefix, err); err != nil {
			return err
		}
	}
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
