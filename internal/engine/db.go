package engine

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"strings"
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
	pointers       [version.NumLevels][]byte

	// nextFile is atomic because an unlocked background compaction
	// cuts output files while writers allocate WAL numbers under mu.
	nextFile atomic.Uint64
	lastSeq  keys.SeqNum

	tcache  *tableCache
	tracker *core.Tracker
	sys     core.Syscalls // non-nil in NobLSM mode
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
		puts:             r.Counter("engine.puts"),
		deletes:          r.Counter("engine.deletes"),
		gets:             r.Counter("engine.gets"),
		getHits:          r.Counter("engine.get_hits"),
		getFilesExamined: r.Counter("engine.get_files_examined"),
		getDecodedBytes:  r.Counter("engine.get_decoded_bytes"),
		getDeclaredBytes: r.Counter("engine.get_declared_bytes"),
		userBytes:        r.Counter("engine.user_bytes_written"),

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

// Open opens (or creates) a database on fs. In SyncNobLSM mode fs must
// also implement core.Syscalls (the ext4 simulation does).
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
		sys, ok := fs.(core.Syscalls)
		if !ok {
			return nil, fmt.Errorf("engine: NobLSM mode needs a filesystem with check_commit/is_committed syscalls")
		}
		db.sys = sys
		db.tracker = core.NewTrackerObserved(sys, opts.PollInterval, db.shadowReleased, reg, opts.Events)
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
	if err := db.manifest.AddRecord(tl, edit.Encode()); err != nil {
		return db.recoverManifest(tl, err)
	}
	if db.opts.syncManifest() {
		return db.retryFileSync(tl, db.manifestFile, "manifest")
	}
	if db.sys != nil && edit.HasLogNumber {
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

// Get returns the newest visible value of key, or ErrNotFound.
func (db *DB) Get(tl *vclock.Timeline, key []byte) ([]byte, error) {
	v, _, err := db.getObserved(tl, key, keys.MaxSeqNum, db.tel != nil)
	return v, err
}

// GetObserved is Get plus the operation's attribution span, for
// callers (and tests) that need per-op phase durations rather than the
// aggregate timers. The span is populated whether or not telemetry is
// enabled; the aggregate plane only accumulates when it is.
func (db *DB) GetObserved(tl *vclock.Timeline, key []byte) ([]byte, obs.OpSpan, error) {
	return db.getObserved(tl, key, keys.MaxSeqNum, true)
}

// get reads key as of sequence snapSeq (the snapshot read path).
func (db *DB) get(tl *vclock.Timeline, key []byte, snapSeq keys.SeqNum) ([]byte, error) {
	v, _, err := db.getObserved(tl, key, snapSeq, db.tel != nil)
	return v, err
}

// getObserved reads key as of sequence snapSeq, retrying transient
// injected faults with backoff and routing sstable corruption through
// the self-healing path (heal.go): a corrupt successor whose shadow
// predecessors are still retained is rolled back and the read
// re-served from them. Fault-free reads take this wrapper's single
// fall-through iteration, so the deterministic figures are untouched.
// With observed set, an attribution span is threaded through the
// attempt(s): probe time in PhaseReadMem/TableOpen/TableGet, healing
// in PhaseReadHeal, retry backoff in PhaseReadBackoff.
func (db *DB) getObserved(tl *vclock.Timeline, key []byte, snapSeq keys.SeqNum, observed bool) ([]byte, obs.OpSpan, error) {
	var span obs.OpSpan
	var sp *obs.OpSpan
	if observed {
		sp = &span
		sp.Begin(tl.Now(), obs.PhaseReadMem)
	}
	transient, heals := 0, 0
	for {
		v, err := db.getOnce(tl, key, snapSeq, sp)
		if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) {
			sp.Finish(tl.Now())
			db.tel.ObserveRead(sp)
			return v, span, err
		}
		if heals <= bgMaxRetries {
			sp.To(tl.Now(), obs.PhaseReadHeal)
			healed := db.healFromRead(tl, err)
			sp.To(tl.Now(), obs.PhaseReadMem)
			if healed {
				heals++
				db.m.readRetries.Inc()
				continue
			}
		}
		if vfs.IsTransient(err) && transient < bgMaxRetries {
			transient++
			db.m.readRetries.Inc()
			sp.To(tl.Now(), obs.PhaseReadBackoff)
			tl.Advance(bgBackoff(transient - 1))
			sp.To(tl.Now(), obs.PhaseReadMem)
			continue
		}
		sp.Finish(tl.Now())
		db.tel.ObserveRead(sp)
		return nil, span, err
	}
}

// getOnce performs one lookup attempt as of sequence snapSeq
// (MaxSeqNum = latest). Reads do not take db.mu: they pin the
// published {memtable, version} snapshot and read through it
// lock-free. Only the seek-compaction bookkeeping — a version-state
// mutation — briefly acquires db.mu. sp (nil when attribution is off)
// enters in PhaseReadMem and is switched to TableOpen/TableGet around
// each table probe.
func (db *DB) getOnce(tl *vclock.Timeline, key []byte, snapSeq keys.SeqNum, sp *obs.OpSpan) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if vis := db.visibleSeq.Load(); snapSeq > vis {
		snapSeq = vis
	}
	tl.Advance(readCPU)
	db.m.gets.Inc()
	if db.tracker != nil {
		db.tracker.MaybePoll(tl)
	}
	rs := db.acquireReadState()
	released := false
	release := func() {
		if !released {
			released = true
			db.releaseReadState(rs)
		}
	}
	defer release()

	if v, deleted, found := rs.memGet(key, snapSeq); found {
		if deleted {
			return nil, ErrNotFound
		}
		db.m.getHits.Inc()
		return append([]byte(nil), v...), nil
	}

	c := getCursor()
	defer c.release()
	c.seek = keys.MakeInternalKey(c.seek[:0], key, snapSeq, keys.KindSeek)
	var lk lookup
	charge := func() {
		// The value (if any) is already copied out: drop the read
		// pin first, so a seek compaction triggered below sees this
		// lookup's version as unreferenced and can dispose of its
		// obsolete tables immediately (identical deletion timing to
		// the serialized engine).
		release()
		db.m.getFilesExamined.Add(int64(lk.examined))
		// LevelDB charges the first file examined when a lookup
		// touched more than one file. That bookkeeping mutates version
		// state, so it is the one part of the read path that takes
		// db.mu.
		if lk.examined < 2 || lk.first == nil {
			return
		}
		db.mu.Lock()
		db.chargeSeek(tl, lk.first, lk.firstLevel)
		db.mu.Unlock()
	}
	for level := 0; level < version.NumLevels; level++ {
		val, kind, found, err := db.probeLevel(tl, sp, c, &lk, rs.v, level, key, c.seek)
		if err != nil {
			return nil, err
		}
		if found {
			charge()
			if kind == keys.KindDelete {
				return nil, ErrNotFound
			}
			db.m.getHits.Inc()
			return val, nil
		}
	}
	charge()
	return nil, ErrNotFound
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
			if db.sys != nil && db.sys.CommittedSize(tl, fm.Ino) < fm.Size {
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
	if err := w.AddRecord(tl, snap.Encode()); err != nil {
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
