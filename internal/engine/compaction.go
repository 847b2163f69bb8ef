package engine

import (
	"errors"
	"fmt"

	"noblsm/internal/core"
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/memtable"
	"noblsm/internal/obs"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// memIter adapts a memtable iterator to iterator.Iterator.
type memIter struct{ *memtable.Iterator }

func (memIter) Err() error { return nil }

// taggedIter attributes a merge child's error to its source table so
// the compaction scheduler can route corruption to the self-healing
// path (heal.go).
type taggedIter struct {
	iterator.Iterator
	num uint64
}

func (t taggedIter) Err() error {
	if err := t.Iterator.Err(); err != nil {
		return &tableError{num: t.num, err: err}
	}
	return nil
}

// SkipBlock implements iterator.BlockSkipper for a table's scan.
func (t taggedIter) SkipBlock() { t.Iterator.(iterator.BlockSkipper).SkipBlock() }

// minorCompaction dumps an immutable memtable to an L0 (or pushed-
// down) SSTable on the background timeline. This is the one place
// NobLSM syncs KV pairs; afterwards the old WAL is deleted.
//
// The compaction executes eagerly (state changes now) while its cost
// accrues on a background timeline; sched.minorDoneAt records its
// virtual completion so the foreground can stall on it, as LevelDB's
// writers stall on the immutable memtable. The table build runs
// unlocked; version/manifest mutations hold db.mu.
func (db *DB) minorCompaction(tl *vclock.Timeline, imm *memtable.MemTable, logNumber uint64) error {
	bg := db.sched.bg[0]
	bg.WaitUntil(tl.Now())
	db.m.minor.Inc()
	start := bg.Now()

	num := db.newFileNumber()
	var meta *version.FileMeta
	var entries int
	err := db.unlocked(func() error {
		f, err := db.fs.Create(bg, TableName(num))
		if err != nil {
			return err
		}
		b := sstable.NewBuilder(f, db.buildOptions(0, &sstable.BuildScratch{}))
		it := imm.NewIterator()
		for it.First(); it.Valid(); it.Next() {
			if err := b.Add(bg, it.Key(), it.Value()); err != nil {
				return err
			}
			bg.Advance(compactionCPU)
		}
		if err := b.Finish(bg); err != nil {
			return err
		}
		entries = b.Entries()
		meta = &version.FileMeta{
			Number:   num,
			Size:     b.FileSize(),
			Smallest: append([]byte(nil), b.Smallest()...),
			Largest:  append([]byte(nil), b.Largest()...),
			Ino:      f.Ino(),
		}
		if db.opts.syncMinor() {
			if err := f.Sync(bg); err != nil {
				return err
			}
		}
		f.Close(bg)
		return nil
	})
	if err != nil {
		// The partial table is in no version and never will be.
		db.disposeTable(bg, num, nil)
		return err
	}
	db.m.bytesWritten.Add(meta.Size)

	level := 0
	if entries > 0 {
		level = db.pickLevelForMemTableOutput(meta.SmallestUser(), meta.LargestUser())
	}
	edit := &version.VersionEdit{}
	edit.SetLogNumber(logNumber)
	edit.AddFile(level, meta)
	if err := db.logAndApply(bg, edit); err != nil {
		return err
	}
	db.deleteObsolete(bg)
	db.sched.minorDoneAt = bg.Now()
	db.sched.writeWorkDoneAt = max(db.sched.writeWorkDoneAt, bg.Now())
	// The rotation wait this horizon implies is known now — publish it
	// so the governor paces writers toward it instead of letting them
	// slam into one large memtable_full stall.
	db.governor.SetFlushHorizon(bg.Now())
	db.m.minorDur.Observe(bg.Now().Sub(start))
	if db.trace != nil {
		db.trace.Span(db.tidFor(bg), "compaction", "compaction.minor", start, bg.Now(),
			obs.KV{K: "output", V: num},
			obs.KV{K: "level", V: level},
			obs.KV{K: "bytes", V: meta.Size})
	}
	return nil
}

// tidFor maps a background timeline to its logical trace thread id.
func (db *DB) tidFor(bg *vclock.Timeline) int {
	for i, tl := range db.sched.bg {
		if tl == bg {
			return obs.TidBackgroundBase + i
		}
	}
	return obs.TidBackgroundBase
}

// pickLevelForMemTableOutput pushes a fresh table past L0 when it
// overlaps nothing there, up to level 2, as LevelDB does to reduce
// L0→L1 churn.
func (db *DB) pickLevelForMemTableOutput(smallest, largest []byte) int {
	const maxMemCompactLevel = 2
	level := 0
	if len(db.current.Overlapping(0, smallest, largest)) == 0 {
		for ; level < maxMemCompactLevel; level++ {
			if len(db.current.Overlapping(level+1, smallest, largest)) > 0 {
				break
			}
			// Avoid creating a file whose eventual compaction with
			// level+2 would be huge.
			var overlap int64
			for _, f := range db.current.Overlapping(level+2, smallest, largest) {
				overlap += f.Size
			}
			if overlap > 10*db.opts.TableFileSize {
				break
			}
		}
	}
	return level
}

// chargeSeek is LevelDB's allowed-seeks accounting for a lookup that
// examined two or more files, fm at level being the first: the lookup
// costs fm one seek, and an exhausted budget asks for a seek
// compaction. The request is admitted only when no write-triggered
// work — a flush or a size compaction, what writers stall behind — is
// outstanding, as LevelDB's single background thread implies; otherwise
// it is dropped, the budget stays exhausted and the next multi-file
// read of fm asks again. Caller holds db.mu.
func (db *DB) chargeSeek(tl *vclock.Timeline, fm *version.FileMeta, level int) {
	s := &db.sched
	fm.AllowedSeeks--
	// The bottom level has nowhere to push a seek compaction.
	if fm.AllowedSeeks > 0 || s.fileToCompact != nil || level >= version.NumLevels-1 {
		return
	}
	if s.active || s.imm != nil || tl.Now() < s.writeWorkDoneAt {
		db.m.seekDeferred.Inc()
		return
	}
	s.fileToCompact, s.fileToCompactLevel = fm, level
	db.kick(tl.Now())
}

// runCompactions is the work loop's compaction half: it runs size- and
// seek-triggered major compactions until no level is over pressure,
// each eagerly on the least-busy background timeline and no earlier
// than after's clock. Caller holds db.mu.
func (db *DB) runCompactions(after *vclock.Timeline) {
	s := &db.sched
	failures := 0
	for {
		if s.imm != nil {
			// A fresh immutable memtable parked while majors were
			// running. Flushing is the priority — writers stall on the
			// immutable slot — so yield; the work loop re-enters the
			// majors once the flush lands.
			return
		}
		var c *version.Compaction
		if s.fileToCompact != nil {
			// The seek-exhausted file may have been compacted away
			// since it was recorded.
			stillLive := false
			for _, f := range db.current.Files[s.fileToCompactLevel] {
				if f == s.fileToCompact {
					stillLive = true
					break
				}
			}
			if stillLive {
				c = version.SeekCompaction(db.current, s.fileToCompactLevel, s.fileToCompact, &db.pointers, db.opts.Picker)
			}
			s.fileToCompact = nil
		}
		if !c.Empty() {
			db.m.seek.Inc()
		} else if db.governor != nil && db.leveledL0Count() >= db.opts.L0SlowdownTrigger {
			// Governed scheduling: once L0 crosses the slowdown
			// trigger, L0→L1 preempts wider deeper-level majors —
			// flush (the imm check above) > L0→L1 > deeper levels —
			// because foreground pacing is keyed to L0 debt and
			// only L0 drain lowers it.
			var preempted bool
			c, preempted = version.PickCompactionL0First(db.current, &db.pointers, db.opts.Picker)
			if preempted {
				db.governor.NotePreempt()
			}
		} else {
			c = version.PickCompaction(db.current, &db.pointers, db.opts.Picker)
		}
		if c.Empty() {
			return
		}
		bg := db.pickBg()
		bg.WaitUntil(after.Now())
		err := db.doCompaction(bg, c)
		if !c.Seek {
			// Size-triggered work is what writers wait on; seek
			// compactions leave the horizon alone, so they queue behind
			// each other but never hold off the next one (chargeSeek).
			s.writeWorkDoneAt = max(s.writeWorkDoneAt, bg.Now())
		}
		if err != nil {
			var te *tableError
			if errors.Is(err, sstable.ErrCorrupt) && errors.As(err, &te) &&
				db.healTableLocked(bg, te.num) {
				// A corrupt input was rolled back onto its retained
				// shadow predecessors; re-pick against the repaired
				// version and redo the work.
				failures = 0
				continue
			}
			failures++
			if db.bgPermanent != nil || !vfs.IsTransient(err) || failures > bgMaxRetries {
				db.setPermanentLocked(bg, fmt.Errorf("engine: compaction: %w", err))
				return
			}
			// Transient injected fault: back off and re-pick (the
			// failed attempt unlinked its partial outputs).
			db.noteTransientLocked(bg, failures-1)
			continue
		}
		failures = 0
	}
}

// doCompaction merges the inputs of c into new tables at level+1
// (level for hot outputs in L2SM mode), applies the edit, and disposes
// of the old tables per the sync policy.
//
// The merge runs unlocked, in three stages (compactionstages.go), and
// replays the virtual history of one goroutine merging on bg. That is
// safe because compactions are serialized: writers never compact, the
// reader seek path only records fileToCompact, and CompactRange takes
// over from a stopped work loop (sched.active). db.current can
// therefore be read without mu inside the merge (isBaseLevelForKey) —
// no other goroutine installs a compaction meanwhile.
func (db *DB) doCompaction(bg *vclock.Timeline, c *version.Compaction) error {
	if c.IsTrivialMove() {
		db.m.trivial.Inc()
		f := c.Inputs[0][0]
		edit := &version.VersionEdit{}
		edit.DeleteFile(c.Level, f.Number)
		edit.AddFile(c.Level+1, f)
		if db.trace != nil {
			db.trace.Instant(db.tidFor(bg), "compaction", "compaction.trivial_move", bg.Now(),
				obs.KV{K: "file", V: f.Number},
				obs.KV{K: "from_level", V: c.Level},
				obs.KV{K: "bytes", V: f.Size})
		}
		return db.logAndApply(bg, edit)
	}
	db.m.major.Inc()
	start := bg.Now()
	// The hot-retention sketch is updated by writers without extra
	// synchronization, so L2SM-style stores keep the merge locked.
	unlocked := db.unlocked
	if db.hot != nil {
		unlocked = func(fn func() error) error { return fn() }
	}

	outs := [2]*compactionOutput{
		db.newCompactionOutput(bg, c.Level+1, false),
		// Hot retention keeps frequently updated keys at the input level.
		db.newCompactionOutput(bg, c.Level, true),
	}
	m := db.newMergeStage(c)
	err := unlocked(func() error {
		readers, err := db.openInputs(bg, c.AllInputs())
		if err != nil {
			return err
		}
		db.m.bytesRead.Add(c.InputBytes())
		return runCompactionStages(bg, m, readers, outs)
	})
	if err != nil {
		outs[0].abandon()
		outs[1].abandon()
		return err
	}

	outputs := append(append([]*outputFile(nil), outs[0].files...), outs[1].files...)
	return db.installCompaction(bg, c, outputs, start)
}

// openInputs opens every table of inputs, in order: AllInputs order,
// the order of the merge's leaves. Opening here and positioning in
// Merging.First — both in that order, whatever the grouping — is what
// keeps the sequence of filesystem calls, and so every virtual charge,
// the one a child per table produced.
func (db *DB) openInputs(bg *vclock.Timeline, inputs []*version.FileMeta) ([]*sstable.Reader, error) {
	readers := make([]*sstable.Reader, len(inputs))
	for i, fm := range inputs {
		r, err := db.tcache.open(bg, fm)
		if err != nil {
			return nil, err
		}
		readers[i] = r
	}
	return readers, nil
}

// mergeChildren builds the merge's children over runs: a leaf's
// iterator for a run of one table, their concatenation for a longer
// run. leaf makes the iterator of the i-th table in AllInputs order.
func mergeChildren(runs [][]*version.FileMeta, leaf func(i int, fm *version.FileMeta) iterator.Iterator) []iterator.Iterator {
	children := make([]iterator.Iterator, 0, len(runs))
	i := 0
	for _, run := range runs {
		tables := make([]iterator.Iterator, len(run))
		for j, fm := range run {
			tables[j] = leaf(i, fm)
			i++
		}
		if len(tables) == 1 {
			children = append(children, tables[0])
		} else {
			children = append(children, iterator.NewConcat(tables...))
		}
	}
	return children
}

// mergeRuns splits c's inputs, in AllInputs order, into the merge's
// children: adjacent files of one level that are strictly ordered and
// disjoint by user key form one run, which the merge reads as a single
// concatenated child — two children for an Ln→Ln+1 compaction instead
// of one per table, so finding the smallest key costs two comparisons,
// not eleven. Files that overlap their neighbour — L0, a fragmented
// (PebblesDB-style) level, a hot-retained file beside the range it was
// cut from — stay runs of their own.
func mergeRuns(c *version.Compaction) [][]*version.FileMeta {
	var runs [][]*version.FileMeta
	for _, files := range c.Inputs {
		start := 0
		for i := 1; i <= len(files); i++ {
			if i == len(files) || keys.CompareUser(files[i-1].LargestUser(), files[i].SmallestUser()) >= 0 {
				runs = append(runs, files[start:i])
				start = i
			}
		}
	}
	return runs
}

// installCompaction finalizes a merged (non-trivial) compaction's
// outputs and installs them: durability policy, ONE version edit
// covering every input deletion and every output, one tracker
// registration with the complete p→q set, then obsolete-file disposal.
// The single edit is what makes a multi-output compaction crash-atomic
// — recovery either sees the whole successor set or none of it, never
// a partial one.
func (db *DB) installCompaction(bg *vclock.Timeline, c *version.Compaction, outputs []*outputFile, start vclock.Time) error {
	if db.testBeforeInstall != nil {
		db.testBeforeInstall(outputs)
	}
	// Durability policy for the new tables. SyncAll already fsynced
	// each output as it was cut (LevelDB's FinishCompactionOutputFile
	// behaviour); BoLT bundles the compaction's KV pairs into one
	// large factual SSTable and syncs it once here; NobLSM and the
	// volatile mode issue no sync — non-blocking writes.
	if db.opts.SyncMode == SyncBoLT {
		for _, of := range outputs {
			if err := of.f.Sync(bg); err != nil {
				db.abandonOutputs(bg, outputs)
				return err
			}
		}
	}
	for _, of := range outputs {
		of.f.Close(bg)
	}

	edit := &version.VersionEdit{}
	for _, fm := range c.Inputs[0] {
		edit.DeleteFile(c.Level, fm.Number)
	}
	for _, fm := range c.Inputs[1] {
		edit.DeleteFile(c.Level+1, fm.Number)
	}
	var bytesOut int64
	for _, of := range outputs {
		edit.AddFile(of.level, of.meta)
		bytesOut += of.meta.Size
		if of.hot {
			db.m.hotBytesRetained.Add(of.meta.Size)
		}
	}
	if err := db.logAndApply(bg, edit); err != nil {
		return err
	}

	if db.tracker != nil {
		// NobLSM: register the p→q dependency. The old tables become
		// shadow backups — out of the version (so they serve no
		// reads), protected from GC until every successor's inode
		// commits.
		preds := make([]uint64, 0, len(c.Inputs[0])+len(c.Inputs[1]))
		for _, fm := range c.AllInputs() {
			preds = append(preds, fm.Number)
		}
		succs := make([]core.Succ, 0, len(outputs))
		for _, of := range outputs {
			succs = append(succs, core.Succ{Number: of.meta.Number, Ino: of.meta.Ino})
		}
		// The dependency carries the rollback plan: while the tracker
		// retains the shadow predecessors, a corrupt successor can be
		// rolled back onto them (heal.go).
		db.tracker.RegisterWithManifest(bg, preds, succs,
			db.manifestFile.Ino(), db.manifestFile.Size(), newRepairPlan(c, outputs))
	}
	for _, fm := range c.AllInputs() {
		db.obsoleteTables = append(db.obsoleteTables, fm.Number)
	}
	db.deleteObsolete(bg)
	dur := bg.Now().Sub(start)
	db.m.majorDur.Observe(dur)
	db.m.majorDurUs.Observe(int64(dur / vclock.Microsecond))
	if db.trace != nil {
		outNums := make([]uint64, 0, len(outputs))
		for _, of := range outputs {
			outNums = append(outNums, of.meta.Number)
		}
		db.trace.Span(db.tidFor(bg), "compaction", "compaction.major", start, bg.Now(),
			obs.KV{K: "level", V: c.Level},
			obs.KV{K: "inputs", V: len(c.AllInputs())},
			obs.KV{K: "bytes_in", V: c.InputBytes()},
			obs.KV{K: "bytes_out", V: bytesOut},
			obs.KV{K: "outputs", V: outNums})
	}
	return nil
}

// dropState is LevelDB's version-retention rule over one merge stream:
// within one user key (versions arrive newest first) an entry is
// dropped if a newer one is already visible at the oldest live
// snapshot; tombstones at or below that snapshot are dropped when no
// deeper level can hold the key.
type dropState struct {
	smallestSnapshot keys.SeqNum
	lastUserKey      []byte
	haveLast         bool
	lastSeqForKey    keys.SeqNum
}

func newDropState(snap keys.SeqNum) dropState {
	return dropState{smallestSnapshot: snap, lastSeqForKey: keys.MaxSeqNum}
}

func (d *dropState) drop(db *DB, below int, ukey []byte, seq keys.SeqNum, kind keys.Kind) bool {
	if !d.haveLast || keys.CompareUser(ukey, d.lastUserKey) != 0 {
		d.lastUserKey = append(d.lastUserKey[:0], ukey...)
		d.haveLast = true
		d.lastSeqForKey = keys.MaxSeqNum
	}
	drop := false
	if d.lastSeqForKey <= d.smallestSnapshot {
		// A newer version of this key is visible at every live
		// snapshot: this one is shadowed.
		drop = true
	} else if kind == keys.KindDelete && seq <= d.smallestSnapshot &&
		db.isBaseLevelForKey(below, ukey) {
		// Tombstone with nothing underneath and no snapshot that
		// could still need it.
		drop = true
	}
	d.lastSeqForKey = seq
	return drop
}

// isBaseLevelForKey reports whether no level below `below` could hold
// ukey, so tombstones may be dropped.
func (db *DB) isBaseLevelForKey(below int, ukey []byte) bool {
	for level := below + 1; level < version.NumLevels; level++ {
		for _, f := range db.current.Files[level] {
			if !f.AfterFile(ukey) && !f.BeforeFile(ukey) {
				return false
			}
		}
	}
	return true
}

// outputFile is one finished compaction output.
type outputFile struct {
	f     vfs.File
	meta  *version.FileMeta
	level int
	hot   bool
}

// compactionOutput is the commit stage's end of one output: the tables
// it assembles from sealed blocks, cut by size.
type compactionOutput struct {
	db          *DB
	bg          *vclock.Timeline
	targetLevel int
	hot         bool
	opts        sstable.Options

	cur        vfs.File
	asm        *sstable.Assembler
	curN       uint64
	files      []*outputFile
	pendingCut bool
	// scratch is reused across every table this output cuts; each
	// output owns its own, keeping the buffers single-goroutine.
	scratch sstable.BuildScratch
}

func (db *DB) newCompactionOutput(bg *vclock.Timeline, level int, hot bool) *compactionOutput {
	o := &compactionOutput{db: db, bg: bg, targetLevel: level, hot: hot}
	o.opts = db.buildOptions(level, &o.scratch)
	return o
}

// start opens a data block whose first entry starts a user key. A user
// key must never straddle two output files of one level: the newest
// visible version could land in the second file while sorted-level
// lookups only probe the first (LevelDB's boundary-files hazard). So a
// table that reached its size is cut here, at the next user key, and a
// table is created when none is open.
func (o *compactionOutput) start() error {
	if o.pendingCut {
		if err := o.cut(); err != nil {
			return err
		}
	}
	if o.asm == nil {
		o.curN = o.db.newFileNumber()
		f, err := o.db.fs.Create(o.bg, TableName(o.curN))
		if err != nil {
			return err
		}
		o.cur = f
		o.asm = sstable.NewAssembler(f, o.opts)
	}
	return nil
}

// append adds a sealed or adopted data block to the open table.
func (o *compactionOutput) append(blk *sstable.RawBlock) error {
	if err := o.asm.Append(o.bg, blk); err != nil {
		return err
	}
	if blk.Adopted() {
		o.db.m.adoptedBlocks.Inc()
		o.db.m.adoptedBytes.Add(int64(len(blk.Stored())))
	}
	// BoLT emits one large factual SSTable per compaction: no cut.
	if o.db.opts.SyncMode != SyncBoLT && o.asm.FileSize() >= o.db.opts.TableFileSize {
		o.pendingCut = true
	}
	return nil
}

// cut finishes the open table.
func (o *compactionOutput) cut() error {
	if o.asm == nil || o.asm.Entries() == 0 {
		return nil
	}
	if err := o.asm.Finish(o.bg); err != nil {
		return err
	}
	meta := &version.FileMeta{
		Number:   o.curN,
		Size:     o.asm.FileSize(),
		Smallest: append([]byte(nil), o.asm.Smallest()...),
		Largest:  append([]byte(nil), o.asm.Largest()...),
		Ino:      o.cur.Ino(),
	}
	meta.Hot = o.hot
	o.db.m.bytesWritten.Add(meta.Size)
	if o.db.opts.SyncMode == SyncAll && !o.hot {
		// LevelDB fsyncs each compaction output as it is finished,
		// before starting the next one. Hot-zone outputs (the L2SM
		// model) are log-assisted and skip the fsync, like the
		// write-ahead log they stand in for.
		if err := o.cur.Sync(o.bg); err != nil {
			return err
		}
	}
	o.files = append(o.files, &outputFile{f: o.cur, meta: meta, level: o.targetLevel, hot: o.hot})
	o.cur, o.asm = nil, nil
	o.pendingCut = false
	return nil
}

// abandon disposes of every table the output created, finished or not,
// after the merge failed.
func (o *compactionOutput) abandon() {
	if o.cur != nil {
		o.files = append(o.files, &outputFile{f: o.cur, meta: &version.FileMeta{Number: o.curN}})
		o.cur, o.asm = nil, nil
	}
	o.db.abandonOutputs(o.bg, o.files)
	o.files = nil
}
