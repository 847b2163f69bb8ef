package engine

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"noblsm/internal/core"
	"noblsm/internal/governor"
	"noblsm/internal/keys"
	"noblsm/internal/memtable"
	"noblsm/internal/obs"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
	"noblsm/internal/wal"
)

// ErrNotFound is returned by Get for absent or deleted keys.
var ErrNotFound = errors.New("engine: key not found")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("engine: database is closed")

// DB is the LSM-tree store. All methods take the calling thread's
// virtual timeline. Concurrency follows LevelDB's shape: writers are
// group-committed through a leader-based queue (writequeue.go), reads
// go through atomically published {memtable, version} snapshots
// (readstate.go) without taking DB.mu, and DB.mu itself is narrowed
// to version/manifest state transitions — memtable rotation, version
// edits, compaction scheduling and the seek-compaction bookkeeping.
// Flushes and compactions run in one background work loop
// (scheduler.go), whichever goroutine executes it.
type DB struct {
	// mu guards version/manifest state: current, lastSeq, pointers,
	// manifest*, wal*, nextFile, mem (the pointer; its contents are
	// single-writer/multi-reader), logGates, snapshots and the
	// scheduler's state. The write-path leader holds it for the whole
	// commit; reads do not take it.
	mu   sync.Mutex
	opts Options
	fs   vfs.FS

	// Writer queue (group commit): wqMu guards writeQ only and nests
	// inside mu. visibleSeq is the newest sequence readers may
	// observe, published after a whole group is in the memtable so a
	// group is never read half-applied.
	wqMu       sync.Mutex
	writeQ     []*writeReq
	visibleSeq atomicSeq

	// Read snapshots: rsMu (leaf lock, nests inside mu) guards the
	// readState refcounts; rs is the currently published snapshot.
	rsMu       sync.Mutex
	rs         *readState
	readStates map[*readState]struct{}

	mem       *memtable.MemTable
	wal       *wal.Writer
	walFile   vfs.File
	walNumber uint64

	// sched owns the immutable memtable slot, the background work loop
	// and the virtual timelines it runs on (scheduler.go).
	sched scheduler

	current        *version.Version
	manifest       *wal.Writer
	manifestFile   vfs.File
	manifestNumber uint64
	// edits are the records of the manifest in use, as encoded: a
	// heal plans over them (heal.go).
	edits    [][]byte
	pointers [version.NumLevels][]byte

	// nextFile is atomic because an unlocked background compaction
	// cuts output files while writers allocate WAL numbers under mu.
	nextFile atomic.Uint64
	lastSeq  keys.SeqNum

	tcache  *tableCache
	tracker *core.Tracker // non-nil in NobLSM mode
	hot     *hotSketch

	// logGates defer write-ahead-log deletion in NobLSM mode: logs
	// below Log become obsolete only once the MANIFEST is durably
	// committed past ManifestOff (the edit that superseded them).
	// Without this, the log's unlink — a metadata operation — can
	// commit ahead of the manifest edit's (delayed-allocation) data
	// and orphan a freshly synced L0 table across a crash.
	logGates []logGate

	// Obsolete-file candidates (disposal.go): numbers of tables that
	// left the version (a merged compaction's inputs, a healed
	// successor's siblings) and of rotated-out or replayed WALs, under
	// mu; and of shadows the tracker released while a reader or a
	// checkpoint held them, under rsMu because a poll may run without
	// mu. deleteObsolete disposes of all three.
	obsoleteTables []uint64
	obsoleteLogs   []uint64
	releasedPinned []uint64

	// testBeforeInstall, when set by a test, runs after a compaction's
	// merge completes but before its version edit is applied — the
	// window where a crash must not expose a partial successor set.
	// Called with db.mu held and the would-be outputs.
	testBeforeInstall func(outputs []*outputFile)

	// snapshots holds live Snapshots in creation (= sequence) order.
	snapshots *list.List

	memSeed int64
	closed  atomic.Bool

	// Background-error state machine (bgerror.go). bgPermanent is the
	// first permanent background error (under mu); readOnly mirrors it
	// atomically for lock-free write gating. walPoisoned marks the
	// current WAL as unappendable after a failed AddRecord (the next
	// commit rotates first); walFailures counts consecutive WAL append
	// failures. logNumber tracks the newest log number recorded in a
	// manifest edit — the floor a manifest rewrite snapshots.
	bgPermanent error
	readOnly    atomic.Bool
	walPoisoned bool
	walFailures int
	logNumber   uint64

	// reg is the metrics registry (opts.Metrics or a private one);
	// m are the engine counters resolved from it once at Open, so
	// hot-path updates are single atomic adds, and stalls is the
	// cause-tagged stall ledger over the same registry (db.stall).
	// trace is the optional event sink — nil disables tracing at one
	// pointer check per site.
	reg    *obs.Registry
	m      engineMetrics
	stalls *obs.StallLedger
	trace  *obs.Tracer

	// governor is the write admission controller
	// (Options.GovernorEnabled; governor.go). Nil when disabled —
	// every call site is a nil-receiver no-op. The pointer is set once
	// at Open and never mutated, so writers read it without mu.
	governor *governor.Governor

	// tel is the per-op attribution plane (opts.Telemetry): phase
	// timers and the windowed time-series. Nil disables attribution at
	// one pointer check per operation (see the span threading in
	// writequeue.go / getObserved).
	tel *obs.Telemetry
}

// atomicSeq is an atomically accessed keys.SeqNum.
type atomicSeq struct{ v atomic.Uint64 }

func (a *atomicSeq) Store(s keys.SeqNum) { a.v.Store(uint64(s)) }
func (a *atomicSeq) Load() keys.SeqNum   { return keys.SeqNum(a.v.Load()) }

// engineMetrics are the engine counters, resolved once from the
// registry under the "engine." (and "wal."/"manifest.") prefixes.
type engineMetrics struct {
	puts, deletes, gets, getHits      *obs.Counter
	getFilesExamined                  *obs.Counter
	getBloomFalsePositives            *obs.Counter // tables a read of the newest versions probed past their filter that held no version of the key
	userBytes                         *obs.Counter
	getDecodedBytes, getDeclaredBytes *obs.Counter // sstable.Iter.Decoded

	// MultiGet batch accounting: probes/keys is the batch's read
	// amplification (table probes per key), batches/keys its mean size.
	multiGetBatches, multiGetKeys, multiGetProbes *obs.Counter

	minor, major, trivial, seek *obs.Counter
	seekDeferred                *obs.Counter
	bytesRead, bytesWritten     *obs.Counter
	// adoptedBlocks and adoptedBytes count the input blocks a major
	// compaction appended as they were stored (mergeStage.adopt).
	adoptedBlocks, adoptedBytes *obs.Counter
	hotBytesRetained            *obs.Counter

	walRecords, walBytes           *obs.Counter
	manifestRecords, manifestBytes *obs.Counter

	minorDur, majorDur *obs.Timer
	// majorDurUs mirrors majorDur as a plain histogram in microseconds
	// so benchmark tooling can read compaction-duration percentiles
	// without knowing the timer encoding.
	majorDurUs *obs.Histogram

	// groupCommitSize is the batches-per-group distribution of the
	// leader-based write queue (1 = no coalescing happened).
	groupCommitSize *obs.Histogram

	// Background-error state machine and self-healing counters
	// (bgerror.go / heal.go).
	bgTransientErrors  *obs.Counter
	bgRetries          *obs.Counter
	bgPermanentErrors  *obs.Counter
	readOnlyGauge      *obs.Gauge
	walPoisonRotations *obs.Counter
	readRetries        *obs.Counter
	readsHealed        *obs.Counter
	tablesQuarantined  *obs.Counter

	// Recovery: edits undone, files resurrected, log records dropped.
	recoveryUndone, recoveryResurrected, recoveryWALDropped *obs.Counter

	// Backup (checkpoint.go): backups taken, zero-copy accounting, and
	// the last-backup watermark.
	backups       *obs.Counter
	backupLinked  *obs.Counter
	backupCopied  *obs.Counter
	lastBackupSeq *obs.Gauge
	lastBackupAt  *obs.Gauge
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		puts:                   r.Counter("engine.puts"),
		deletes:                r.Counter("engine.deletes"),
		gets:                   r.Counter("engine.gets"),
		getHits:                r.Counter("engine.get_hits"),
		getFilesExamined:       r.Counter("engine.get_files_examined"),
		getBloomFalsePositives: r.Counter("engine.get_bloom_false_positives"),
		getDecodedBytes:        r.Counter("engine.get_decoded_bytes"),
		getDeclaredBytes:       r.Counter("engine.get_declared_bytes"),
		userBytes:              r.Counter("engine.user_bytes_written"),

		multiGetBatches: r.Counter("engine.multiget.batches"),
		multiGetKeys:    r.Counter("engine.multiget.keys"),
		multiGetProbes:  r.Counter("engine.multiget.probes"),

		minor:            r.Counter("engine.compactions.minor"),
		major:            r.Counter("engine.compactions.major"),
		trivial:          r.Counter("engine.compactions.trivial_moves"),
		seek:             r.Counter("engine.compactions.seek"),
		seekDeferred:     r.Counter("engine.compactions.seek_deferred"),
		bytesRead:        r.Counter("compaction.bytes_read"),
		bytesWritten:     r.Counter("compaction.bytes_written"),
		adoptedBlocks:    r.Counter("compaction.adopted_blocks"),
		adoptedBytes:     r.Counter("compaction.adopted_bytes"),
		hotBytesRetained: r.Counter("engine.compaction.hot_bytes_retained"),

		walRecords:      r.Counter("wal.records"),
		walBytes:        r.Counter("wal.bytes"),
		manifestRecords: r.Counter("manifest.records"),
		manifestBytes:   r.Counter("manifest.bytes"),

		minorDur:   r.Timer("engine.compaction.minor_duration"),
		majorDur:   r.Timer("engine.compaction.major_duration"),
		majorDurUs: r.Histogram("compaction.duration_us"),

		groupCommitSize: r.Histogram("engine.group_commit_size"),

		bgTransientErrors:  r.Counter("engine.bg.transient_errors"),
		bgRetries:          r.Counter("engine.bg.retries"),
		bgPermanentErrors:  r.Counter("engine.bg.permanent_errors"),
		readOnlyGauge:      r.Gauge("engine.read_only"),
		walPoisonRotations: r.Counter("engine.wal.poison_rotations"),
		readRetries:        r.Counter("engine.read_retries"),
		readsHealed:        r.Counter("engine.reads_healed"),
		tablesQuarantined:  r.Counter("engine.tables_quarantined"),

		recoveryUndone:      r.Counter("engine.recovery.edits_undone"),
		recoveryResurrected: r.Counter("engine.recovery.files_resurrected"),
		recoveryWALDropped:  r.Counter("engine.recovery.wal_records_dropped"),

		backups:       r.Counter("engine.ckpt.backups"),
		backupLinked:  r.Counter("engine.ckpt.files_linked"),
		backupCopied:  r.Counter("engine.ckpt.bytes_copied"),
		lastBackupSeq: r.Gauge("engine.ckpt.last_backup_seq"),
		lastBackupAt:  r.Gauge("engine.ckpt.last_backup_at_ns"),
	}
}

// Open opens (or creates) a database on fs.
func Open(tl *vclock.Timeline, fs vfs.FS, opts Options) (*DB, error) {
	opts = opts.sanitize()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	db := &DB{
		opts:       opts,
		fs:         fs,
		memSeed:    opts.Seed,
		snapshots:  list.New(),
		readStates: make(map[*readState]struct{}),
		reg:        reg,
		m:          newEngineMetrics(reg),
		stalls:     obs.NewStallLedger(reg, opts.Telemetry),
		trace:      opts.Events,
		tel:        opts.Telemetry,
	}
	db.nextFile.Store(2)
	// The one place the executors part: who runs the work loop.
	db.sched.goroutine = opts.AsyncCompaction
	db.sched.cond = sync.NewCond(&db.mu)
	db.mem = memtable.New(db.memSeed)
	db.tcache = newTableCache(fs, db.tableOptions(), opts.BlockCacheBytes, opts.CompressedBlockCacheBytes)
	db.tcache.blocks.Instrument(reg.Counter("cache.block.hits"), reg.Counter("cache.block.misses"), reg.Counter("cache.block.fills"))
	db.tcache.tables.Instrument(reg.Counter("cache.table.hits"), reg.Counter("cache.table.misses"), reg.Counter("cache.table.fills"))
	reg.Gauge("cache.shards").Set(int64(db.tcache.blocks.Shards()))
	reg.Gauge("cache.table.shards").Set(int64(db.tcache.tables.Shards()))
	if db.tcache.cblocks != nil {
		db.tcache.cblocks.Instrument(reg.Counter("cache.cblock.hits"), reg.Counter("cache.cblock.misses"), reg.Counter("cache.cblock.fills"))
		reg.Gauge("cache.cblock.shards").Set(int64(db.tcache.cblocks.Shards()))
	}
	for i := 0; i < opts.ParallelCompactions; i++ {
		db.sched.bg = append(db.sched.bg, vclock.NewTimeline(tl.Now()))
	}
	db.governor = db.newGovernor()
	if opts.HotCold {
		db.hot = newHotSketch()
	}
	if opts.SyncMode == SyncNobLSM {
		db.tracker = core.NewTrackerObserved(fs, opts.PollInterval, db.shadowReleased, reg, opts.Events)
	}

	// Recovery runs the work loop on this goroutine, which expects db.mu.
	db.mu.Lock()
	defer db.mu.Unlock()
	// Store files without CURRENT (a crash can lose CURRENT's namespace
	// op while fsynced tables survive, and operators delete it by
	// accident) are recovered, through Repair: never silently create a
	// fresh DB over existing data.
	if fs.Exists(tl, CurrentName) || storeHasFiles(tl, fs) {
		err := db.recover(tl)
		if err != nil && errors.Is(err, ErrNeedsRepair) {
			if _, rerr := Repair(tl, fs, opts); rerr != nil {
				return nil, fmt.Errorf("engine: auto-repair after %q failed: %w", err, rerr)
			}
			err = db.recover(tl)
		}
		if err != nil {
			return nil, err
		}
	} else {
		if err := db.createNew(tl); err != nil {
			return nil, err
		}
	}
	db.visibleSeq.Store(db.lastSeq)
	db.publishReadState()
	db.deleteObsoleteFiles(tl)
	// A crash may have left a level over pressure.
	db.kick(tl.Now())
	return db, nil
}

// storeHasFiles reports whether the directory already holds files of
// an engine store (tables, logs, manifests), ignoring foreign names.
func storeHasFiles(tl *vclock.Timeline, fs vfs.FS) bool {
	for _, name := range fs.List(tl) {
		if _, _, ok := ParseFileName(name); ok && name != CurrentName {
			return true
		}
	}
	return false
}

// tableOptions are the read-side table options shared by every open
// table. Reading is per-block tag-driven, so the level-dependent build
// choices (codec, filter sizing) need no reader counterpart — the
// compressed cache tier is attached by the table cache, which owns it.
func (db *DB) tableOptions() sstable.Options {
	return sstable.Options{
		BlockSize:       db.opts.BlockSize,
		RestartInterval: 16,
		BloomBitsPerKey: db.opts.BloomBitsPerKey,
		CodecCostDiv:    db.opts.CodecCostDiv,
	}
}

// buildOptions shape a Builder for a table targeting level: the codec
// and filter sizing resolve per level, and scratch (may be nil) lends
// reusable buffers — one owner per builder sequence, never shared
// across goroutines.
func (db *DB) buildOptions(level int, scratch *sstable.BuildScratch) sstable.Options {
	o := db.tableOptions()
	o.Compression = db.opts.compressionForLevel(level)
	o.BloomBitsPerKey = db.opts.bloomBitsForLevel(level)
	o.Scratch = scratch
	return o
}

// createNew initializes an empty database: MANIFEST, CURRENT, WAL.
func (db *DB) createNew(tl *vclock.Timeline) error {
	db.current = &version.Version{}
	db.manifestNumber = 1
	mf, err := db.fs.Create(tl, ManifestName(db.manifestNumber))
	if err != nil {
		return err
	}
	db.manifestFile = mf
	db.manifest = wal.NewWriter(mf)
	db.manifest.Instrument(db.m.manifestRecords, db.m.manifestBytes)

	if err := db.newWAL(tl); err != nil {
		return err
	}
	edit := &version.VersionEdit{}
	edit.SetLogNumber(db.walNumber)
	if err := db.logAndApply(tl, edit); err != nil {
		return err
	}
	if err := db.fs.WriteFile(tl, CurrentName, []byte(ManifestName(db.manifestNumber)+"\n")); err != nil {
		return err
	}
	if db.opts.syncManifest() {
		return db.fs.SyncDir(tl)
	}
	return nil
}

// newWAL rotates to a fresh write-ahead log.
func (db *DB) newWAL(tl *vclock.Timeline) error {
	num := db.newFileNumber()
	f, err := db.fs.Create(tl, LogName(num))
	if err != nil {
		return err
	}
	if db.walFile != nil {
		db.walFile.Close(tl)
	}
	if db.walNumber != 0 {
		// The rotated-out log becomes a disposal candidate once the
		// flush that supersedes it is durable (safeLogNumber gates).
		db.obsoleteLogs = append(db.obsoleteLogs, db.walNumber)
	}
	db.walFile = f
	db.wal = wal.NewWriter(f)
	db.wal.Instrument(db.m.walRecords, db.m.walBytes)
	if db.tel != nil {
		db.wal.InstrumentTimer(db.reg.Timer("wal.append_duration"))
	}
	db.walNumber = num
	if db.trace != nil {
		db.trace.Instant(obs.TidForeground, "memtable", "wal.rotate", tl.Now(),
			obs.KV{K: "log", V: num})
	}
	return nil
}

func (db *DB) newFileNumber() uint64 {
	return db.nextFile.Add(1) - 1
}

// logAndApply installs a version edit: it applies the edit to the
// in-memory version and appends it to the MANIFEST (synced only in
// sync-all/BoLT modes; NobLSM relies on journal ordering).
//
// logAndApply never returns a transient-retryable error: a failed
// manifest append is recovered internally by snapshotting the applied
// version onto a fresh manifest (recoverManifest), and only a
// permanent failure — which has already flipped the DB read-only —
// propagates.
func (db *DB) logAndApply(tl *vclock.Timeline, edit *version.VersionEdit) error {
	edit.SetNextFileNumber(db.nextFile.Load())
	edit.SetLastSeq(db.lastSeq)
	b := version.NewBuilder(db.current)
	b.Apply(edit)
	db.current = b.Finish()
	if edit.HasLogNumber && edit.LogNumber > db.logNumber {
		db.logNumber = edit.LogNumber
	}
	// Every version change republishes the read snapshot; memtable
	// rotations are always followed by the flush's edit, so this is
	// the single publication point for readers.
	db.publishReadState()
	// Kept before the append: a failed append snapshots the version,
	// this edit included, and resets edits to that snapshot.
	rec := edit.Encode()
	db.edits = append(db.edits, rec)
	if err := db.manifest.AddRecord(tl, rec); err != nil {
		return db.recoverManifest(tl, err)
	}
	if db.opts.syncManifest() {
		return db.retryLocked(tl, "engine: manifest sync", func() error { return db.manifestFile.Sync(tl) })
	}
	if db.tracker != nil && edit.HasLogNumber {
		db.logGates = append(db.logGates, logGate{
			Log:         edit.LogNumber,
			ManifestOff: db.manifestFile.Size(),
		})
	}
	return nil
}

// Put inserts a key/value pair.
func (db *DB) Put(tl *vclock.Timeline, key, value []byte) error {
	b := getBatch()
	b.Put(key, value)
	err := db.Write(tl, b)
	putBatch(b)
	return err
}

// Delete writes a tombstone for key.
func (db *DB) Delete(tl *vclock.Timeline, key []byte) error {
	b := getBatch()
	b.Delete(key)
	err := db.Write(tl, b)
	putBatch(b)
	return err
}

// leveledL0Count counts L0 files that participate in the leveled
// structure; hot-zone files (the L2SM model) live outside it and must
// not drive write throttling, or every write pays the slowdown
// penalty forever.
func (db *DB) leveledL0Count() int {
	n := 0
	for _, f := range db.current.Files[0] {
		if !f.Hot {
			n++
		}
	}
	return n
}

func (db *DB) maxBgTime() vclock.Time {
	var m vclock.Time
	for _, bg := range db.sched.bg {
		if bg.Now() > m {
			m = bg.Now()
		}
	}
	return m
}

// pickBg returns the least-busy background timeline.
func (db *DB) pickBg() *vclock.Timeline {
	best := db.sched.bg[0]
	for _, bg := range db.sched.bg[1:] {
		if bg.Now() < best.Now() {
			best = bg
		}
	}
	return best
}

// Close flushes nothing (LevelDB semantics): it releases the handles.
// Unsynced state is recovered from the WAL on the next Open, modulo
// crash-loss windows.
func (db *DB) Close(tl *vclock.Timeline) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Let the work loop stop before tearing down, so no goroutine
	// outlives the handle. A permanent background error is the close
	// result.
	err := db.waitIdle()
	if !db.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	if db.walFile != nil {
		db.walFile.Close(tl)
	}
	if db.manifestFile != nil {
		db.manifestFile.Close(tl)
	}
	return err
}

// Registry exposes the metrics registry the engine publishes into —
// the shared one from Options.Metrics, or the private fallback. It is
// the engine's one counter surface: read it by name.
func (db *DB) Registry() *obs.Registry { return db.reg }

// Tracker exposes the NobLSM tracker (nil in other modes).
func (db *DB) Tracker() *core.Tracker { return db.tracker }

// Version returns the current version (read-only; for tests and
// tools).
func (db *DB) Version() *version.Version {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.current
}

// WaitBackground stalls tl until all background work completes in
// virtual time (used by experiments that measure total execution
// time including compaction drain).
func (db *DB) WaitBackground(tl *vclock.Timeline) {
	db.mu.Lock()
	defer db.mu.Unlock()
	tl.WaitUntil(db.sched.minorDoneAt)
	tl.WaitUntil(db.maxBgTime())
}
