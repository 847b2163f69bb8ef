package engine

import (
	"fmt"
	"slices"
	"strings"

	"noblsm/internal/keys"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
	"noblsm/internal/wal"
)

// recover rebuilds state from CURRENT/MANIFEST and replays WALs.
//
// Conditions that in-place recovery cannot handle — CURRENT naming a
// missing or garbage manifest, interior manifest corruption, or an
// install planRecovery cannot undo — are reported as errors wrapping
// ErrNeedsRepair before any state is mutated; Open rebuilds the store
// via Repair and retries. A torn manifest tail stays in place: the
// decoded prefix is kept and the manifest rewritten.
func (db *DB) recover(tl *vclock.Timeline) error {
	currentData, err := db.fs.ReadFile(tl, CurrentName)
	if err != nil {
		return fmt.Errorf("%w: reading CURRENT: %v", ErrNeedsRepair, err)
	}
	manifestName := strings.TrimSpace(string(currentData))
	kind, manifestNum, ok := ParseFileName(manifestName)
	if !ok || kind != KindManifest {
		return fmt.Errorf("%w: CURRENT points at %q", ErrNeedsRepair, manifestName)
	}

	manifestData, err := db.fs.ReadFile(tl, manifestName)
	if err != nil {
		return fmt.Errorf("%w: reading %s: %v", ErrNeedsRepair, manifestName, err)
	}
	edits, state := classifyManifest(manifestData)
	if state == manifestInterior {
		return fmt.Errorf("%w: %s has interior corruption (damage followed by further valid records)",
			ErrNeedsRepair, manifestName)
	}
	plan := planRecovery(edits, func(num uint64) bool {
		f, err := db.fs.Open(tl, TableName(num))
		if err != nil {
			return false
		}
		defer f.Close(tl)
		_, err = sstable.Open(tl, f, db.tableOptions(), num, nil)
		return err == nil
	})
	if plan.needsRepair {
		return fmt.Errorf("%w: %s holds an install that must be undone and cannot be", ErrNeedsRepair, manifestName)
	}
	db.current = plan.version
	db.manifestNumber = manifestNum
	db.nextFile.Store(max(db.nextFile.Load(), plan.nextFile))
	db.lastSeq = max(db.lastSeq, plan.lastSeq)
	db.m.recoveryUndone.Add(int64(len(plan.undone)))
	db.m.recoveryResurrected.Add(int64(len(plan.resurrected)))

	// Never reuse a file number that exists on disk: a crash can leave
	// files (e.g. never-installed compaction outputs) whose numbers lie
	// above the durable NextFileNumber, and re-allocating one of them
	// would alias a fresh file with crash debris — a recovery flush
	// could otherwise recreate a dead compaction output's number and
	// make it impossible to tell leftovers from live files.
	for _, name := range db.fs.List(tl) {
		if _, num, ok := ParseFileName(name); ok && num >= db.nextFile.Load() {
			db.nextFile.Store(num + 1)
		}
	}

	if state == manifestTornTail || len(plan.undone) > 0 {
		// Rewrite the manifest as a snapshot of the recovered-good
		// version so the dropped tail cannot resurface; recovery
		// syncs it regardless of mode (one-off, off the benchmark
		// path).
		if err := db.rewriteManifest(tl, plan.logNumber); err != nil {
			return err
		}
	} else {
		// Reopen the manifest for appending.
		db.manifestFile, err = db.reopenForAppend(tl, manifestName)
		if err != nil {
			return err
		}
		db.manifest = wal.NewWriter(db.manifestFile)
		db.manifest.Instrument(db.m.manifestRecords, db.m.manifestBytes)
		for r := wal.NewReader(manifestData); ; {
			rec, ok := r.Next()
			if !ok {
				break
			}
			db.edits = append(db.edits, rec)
		}
	}

	// Replay WALs with number >= logNumber, oldest first.
	var logs []uint64
	for _, name := range db.fs.List(tl) {
		if kind, num, ok := ParseFileName(name); ok && kind == KindLog && num >= plan.logNumber {
			logs = append(logs, num)
		}
	}
	slices.Sort(logs)
	for _, num := range logs {
		if err := db.replayWAL(tl, num); err != nil {
			return err
		}
		if num >= db.nextFile.Load() {
			db.nextFile.Store(num + 1)
		}
	}

	// Start a fresh WAL; flush any replayed entries so the old logs
	// become disposable.
	if err := db.newWAL(tl); err != nil {
		return err
	}
	if !db.mem.Empty() {
		return db.flushReplayed(tl, db.walNumber)
	}
	edit := &version.VersionEdit{}
	edit.SetLogNumber(db.walNumber)
	return db.logAndApply(tl, edit)
}

// flushReplayed parks the replayed memtable and runs the work loop on
// the Open goroutine, whichever executor serves the handle later.
func (db *DB) flushReplayed(tl *vclock.Timeline, logNumber uint64) error {
	db.parkMemtable(tl, logNumber)
	db.backgroundWork()
	return db.bgPermanent
}

// rewriteManifest replaces the MANIFEST with a snapshot of the current
// version under a fresh file number and durably repoints CURRENT.
func (db *DB) rewriteManifest(tl *vclock.Timeline, logNumber uint64) error {
	num := db.newFileNumber()
	mf, err := db.fs.Create(tl, ManifestName(num))
	if err != nil {
		return err
	}
	w := wal.NewWriter(mf)
	snap := &version.VersionEdit{}
	snap.SetLogNumber(logNumber)
	snap.SetNextFileNumber(db.nextFile.Load())
	snap.SetLastSeq(db.lastSeq)
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range db.current.Files[level] {
			snap.AddFile(level, fm)
			// NobLSM's unsynced manifest appends are crash-safe
			// because journal ordering commits a table's bytes no
			// later than the edit referencing it. This snapshot
			// breaks that ordering — it is synced immediately and
			// CURRENT is durably repointed below — so every table it
			// references must be made durable first, or a crash right
			// after leaves a durable manifest naming tables whose
			// bytes were still in the page cache.
			if db.tracker != nil && db.fs.CommittedSize(tl, fm.Ino) < fm.Size {
				tf, err := db.fs.Open(tl, TableName(fm.Number))
				if err != nil {
					return err
				}
				err = tf.Sync(tl)
				tf.Close(tl)
				if err != nil {
					return err
				}
			}
		}
	}
	rec := snap.Encode()
	if err := w.AddRecord(tl, rec); err != nil {
		return err
	}
	if err := mf.Sync(tl); err != nil {
		return err
	}
	if err := db.fs.WriteFile(tl, CurrentName, []byte(ManifestName(num)+"\n")); err != nil {
		return err
	}
	if err := db.fs.SyncDir(tl); err != nil {
		return err
	}
	db.manifestFile = mf
	db.manifest = w
	db.manifest.Instrument(db.m.manifestRecords, db.m.manifestBytes)
	db.manifestNumber = num
	db.edits = [][]byte{rec}
	return nil
}

// reopenForAppend returns a writable handle positioned at the end of
// an existing file. The ext4 simulation's Create truncates, so this
// copies the contents into a fresh file of the same name via a temp
// name — semantically O_APPEND reopen.
func (db *DB) reopenForAppend(tl *vclock.Timeline, name string) (vfs.File, error) {
	data, err := db.fs.ReadFile(tl, name)
	if err != nil {
		return nil, err
	}
	tmp := name + ".tmp"
	f, err := db.fs.Create(tl, tmp)
	if err != nil {
		return nil, err
	}
	if err := f.Append(tl, data); err != nil {
		return nil, err
	}
	if err := db.fs.Rename(tl, tmp, name); err != nil {
		return nil, err
	}
	return f, nil
}

// replayWAL applies the surviving records of one log file and counts
// the records it drops — the "broken KV pairs in the logs" of the
// paper's consistency test.
func (db *DB) replayWAL(tl *vclock.Timeline, num uint64) error {
	dropped := db.m.recoveryWALDropped
	data, err := db.fs.ReadFile(tl, LogName(num))
	if err != nil {
		return err
	}
	r := wal.NewReader(data)
	// Salvage-to-last-valid-record: stop at the first damaged record
	// instead of resyncing past it — records that follow a hole must
	// not be applied over their lost predecessors.
	r.HaltAtCorruption = true
	defer func() { dropped.Add(int64(r.DroppedRecords)) }()
	applied := 0
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		applied++
		b, err := decodeBatch(rec)
		if err == nil {
			err = b.applyTo(db.mem)
		}
		if err != nil {
			// A torn batch at the tail: stop at the damage, like
			// LevelDB's paranoid-checks-off default.
			dropped.Inc()
			break
		}
		if end := b.Seq() + keys.SeqNum(b.Count()) - 1; end > db.lastSeq {
			db.lastSeq = end
		}
		if db.mem.ApproximateMemoryUsage() > db.opts.WriteBufferSize {
			if err := db.flushReplayed(tl, num); err != nil {
				return err
			}
		}
	}
	if r.Halted() {
		// Count what the salvage left behind so the drop is visible in
		// recovery accounting, not silently absorbed. The remainder is
		// not block-aligned on its own, so re-scan the whole image
		// without halting and subtract the records that were applied.
		if total, _ := wal.CountRecords(data); total > applied {
			dropped.Add(int64(total - applied))
		}
	}
	return nil
}
