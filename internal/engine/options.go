// Package engine implements the LSM-tree key-value store: a LevelDB
// architecture (WAL + memtable + leveled SSTables + MANIFEST) over the
// virtual-time filesystem, parameterized so that the seven systems the
// paper compares — LevelDB, a volatile LevelDB, NobLSM, BoLT, L2SM,
// HyperLevelDB, PebblesDB and a RocksDB-like configuration — are
// configurations of one engine (see internal/policy).
package engine

import (
	"noblsm/internal/obs"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// SyncMode selects the durability discipline for SSTables produced by
// compactions. The write-ahead log is never synced in any mode
// (LevelDB's default WriteOptions{sync:false}); its tail is the
// accepted loss window of every system in the paper.
type SyncMode int

const (
	// SyncAll fsyncs every SSTable produced by minor and major
	// compactions and the MANIFEST after every edit — stock LevelDB.
	SyncAll SyncMode = iota
	// SyncNone never syncs: the "volatile" LevelDB of Section 3,
	// fast but not crash-consistent.
	SyncNone
	// SyncNobLSM fsyncs only the L0 table of a minor compaction;
	// major-compaction outputs are written asynchronously and
	// tracked through ext4's commit tables (the paper's design).
	SyncNobLSM
	// SyncBoLT packs all outputs of a compaction into one large
	// factual SSTable and fsyncs it once per compaction (BoLT,
	// Middleware '20) — fewer barriers, but still on the critical
	// path, and KV pairs are re-synced at every future compaction.
	SyncBoLT
)

func (m SyncMode) String() string {
	switch m {
	case SyncAll:
		return "sync-all"
	case SyncNone:
		return "sync-none"
	case SyncNobLSM:
		return "noblsm"
	case SyncBoLT:
		return "bolt"
	default:
		return "sync(?)"
	}
}

// Options configure a DB.
type Options struct {
	// SyncMode is the durability discipline (see SyncMode).
	SyncMode SyncMode
	// WriteBufferSize is the memtable size that triggers a minor
	// compaction (LevelDB: 4 MiB).
	WriteBufferSize int64
	// TableFileSize is the output-file cut size of major compactions
	// (LevelDB default: 2 MiB; the paper standardizes on 64 MiB).
	TableFileSize int64
	// BlockSize and BloomBitsPerKey shape SSTables.
	BlockSize       int
	BloomBitsPerKey int
	// BloomBitsPerKeyByLevel overrides BloomBitsPerKey for tables whose
	// target level indexes into the slice (levels beyond its length use
	// BloomBitsPerKey). The useful shape spends more bits on L0/L1 —
	// every point lookup probes them, so false positives there cost a
	// table read per query — and fewer on the bottom level, where one
	// giant filter set dominates memory and a miss is the query's last
	// stop anyway.
	BloomBitsPerKeyByLevel []int
	// BlockCacheBytes bounds the shared block cache (LevelDB: 8 MiB).
	BlockCacheBytes int64
	// CompressedBlockCacheBytes bounds the warm cache tier holding
	// still-compressed block payloads (RocksDB's block_cache_compressed
	// idea): a hit there pays the decode CPU but no device read, and
	// entries pack 2-3× denser than the parsed blocks in the hot tier.
	// 0 disables the tier.
	CompressedBlockCacheBytes int64
	// Compression selects the SSTable block codec for newly built
	// tables (default NoCompression — the paper-figure variants store
	// raw blocks). Reading is always per-block tag-driven, so changing
	// this never invalidates existing tables.
	Compression sstable.Compression
	// CompressionByLevel overrides Compression for tables whose target
	// level indexes into the slice (levels beyond its length use
	// Compression). The useful shape compresses cold bottom levels
	// harder: their blocks are written once per major compaction and
	// read many times, so the slower codec amortizes.
	CompressionByLevel []sstable.Compression
	// CodecCostDiv divides per-byte codec CPU charges, mirroring the
	// harness data-scale divisor applied to device bytes (default 1,
	// i.e. unscaled).
	CodecCostDiv int64
	// Picker tunes compaction triggering.
	Picker version.PickerOptions
	// ParallelCompactions is the number of background compaction
	// timelines — how many INDEPENDENTLY PICKED compactions can accrue
	// virtual time concurrently (LevelDB: 1; HyperLevelDB/RocksDB-like
	// variants use more). It does not split a single compaction: each
	// one is a single sequential merge.
	ParallelCompactions int
	// L0SlowdownTrigger and L0StopTrigger are LevelDB's write
	// throttling thresholds (8 and 12).
	L0SlowdownTrigger int
	L0StopTrigger     int
	// GovernorEnabled turns on closed-loop write admission control
	// (internal/governor): a token-bucket limiter whose rate tracks
	// the measured flush/compaction drain rate, converting L0 and
	// memtable pressure into smooth bounded per-write pacing delays
	// (stall cause "admission_pacing") instead of the LevelDB
	// slowdown/stop cliff. Off by default — the paper-figure variants
	// must reproduce stock throttling byte-for-byte.
	// Its geometry is governor.Derive of Picker.L0CompactionTrigger,
	// L0StopTrigger and WriteBufferSize.
	GovernorEnabled bool
	// PollInterval is NobLSM's is_committed polling cadence (paper:
	// 5 s, matching the journal commit interval).
	PollInterval vclock.Duration
	// HotCold enables L2SM-style hot/cold separation: keys the
	// update-frequency sketch marks hot are kept at the compaction's
	// input level instead of being pushed down and rewritten.
	HotCold bool
	// HotThreshold is the sketch count at which a key counts as hot.
	HotThreshold uint8

	// AsyncCompaction selects who executes the background work loop
	// (scheduler.go), not what it does: a real worker goroutine
	// (LevelDB's background thread) instead of the goroutine that
	// kicked it, so a writer that fills the memtable parks it and
	// continues, stalling only while the previous flush has not
	// finished. Virtual-time charging is unchanged — the work still
	// accrues on the background timelines — but the REAL-time
	// interleaving of simulated-device calls becomes scheduler-
	// dependent, so deterministic virtual experiments (the figure
	// harnesses) must leave this off. It exists for wall-clock
	// throughput of the Go engine itself under concurrent load.
	AsyncCompaction bool

	// Seed makes skiplist shapes and any sampling deterministic.
	Seed int64

	// Metrics is the observability registry the engine (and the
	// components it owns: WAL, MANIFEST, block cache, tracker)
	// publishes counters into. Nil: the engine creates a private
	// registry, which DB.Registry exposes.
	Metrics *obs.Registry
	// Events receives structured engine events (memtable rotations,
	// compaction spans, stalls, tracker retention). Nil disables
	// tracing; every emission site guards with a single nil check, so
	// a nil sink costs nothing measurable on the hot path (see
	// BenchmarkWriteNilSink / BenchmarkWriteObserved).
	Events *obs.Tracer
	// Telemetry enables per-operation latency attribution: OpSpans are
	// threaded through the write and read paths, phase timers are
	// populated, and the windowed time-series accumulates, stalls
	// included. The stall ledger does not need it. Nil (the default) disables attribution
	// at one pointer check per operation; attribution only reads the
	// caller's virtual clock, so enabling it never changes an
	// operation's virtual latency. Build with obs.NewTelemetry —
	// usually over the same registry as Metrics.
	Telemetry *obs.Telemetry
}

// Model constants: virtual-time charges no caller in the repository
// varies. They are constants, not Options, until a sweep needs one.
const (
	// slowdownDelay is the per-write penalty at the slowdown trigger
	// (LevelDB sleeps 1 ms).
	slowdownDelay = vclock.Millisecond
	// writeCPU is charged per Put/Delete, calibrated to the paper's
	// testbed: its no-sync LevelDB sustains ~12 µs per 1 KB put (Figure
	// 2b: 123 s for 10 M ops at 64 MB tables), which is the foreground
	// path — WAL append, memtable insert, engine overhead — with no
	// device waits. That foreground budget is what gives the background
	// thread slack to hide asynchronous work, the effect NobLSM exploits.
	writeCPU = 12 * vclock.Microsecond
	// readCPU is charged per Get.
	readCPU = 3 * vclock.Microsecond
	// iterCPU is charged per iterator step.
	iterCPU = 150 * vclock.Nanosecond
	// compactionCPU is charged per entry a flush or a merge writes.
	compactionCPU = 100 * vclock.Nanosecond
	// getChildrenCost is what the directory listing of LevelDB's
	// RemoveObsoleteFiles costs on the modelled filesystem: one
	// page-cache access (ext4.PageCacheLatency). The
	// engine disposes of garbage by name and no longer needs the
	// listing, but the modelled system still pays for it on every pass
	// (deleteObsolete).
	getChildrenCost = 700 * vclock.Nanosecond
)

// DefaultOptions mirrors stock LevelDB 1.23 with the paper's 64 MiB
// SSTable setting left to the caller (the default here is LevelDB's
// own 2 MiB).
func DefaultOptions() Options {
	return Options{
		SyncMode:            SyncAll,
		WriteBufferSize:     4 << 20,
		TableFileSize:       2 << 20,
		BlockSize:           4096,
		BloomBitsPerKey:     10,
		BlockCacheBytes:     8 << 20,
		Picker:              version.DefaultPickerOptions(),
		ParallelCompactions: 1,
		L0SlowdownTrigger:   8,
		L0StopTrigger:       12,
		PollInterval:        5 * vclock.Second,
		HotThreshold:        8,
		Seed:                1,
	}
}

// sanitize fills zero fields with defaults and coerces out-of-range
// values into their valid domains.
func (o Options) sanitize() Options {
	d := DefaultOptions()
	if o.WriteBufferSize <= 0 {
		o.WriteBufferSize = d.WriteBufferSize
	}
	if o.TableFileSize <= 0 {
		o.TableFileSize = d.TableFileSize
	}
	if o.BlockSize <= 0 {
		o.BlockSize = d.BlockSize
	}
	if o.BlockCacheBytes <= 0 {
		o.BlockCacheBytes = d.BlockCacheBytes
	}
	if o.CodecCostDiv < 1 {
		o.CodecCostDiv = 1
	}
	if o.Picker.L0CompactionTrigger <= 0 {
		o.Picker = d.Picker
	}
	if o.ParallelCompactions <= 0 {
		o.ParallelCompactions = 1
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = d.L0SlowdownTrigger
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = d.L0StopTrigger
	}
	if o.PollInterval <= 0 {
		o.PollInterval = d.PollInterval
	}
	if o.HotThreshold == 0 {
		o.HotThreshold = d.HotThreshold
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// compressionForLevel resolves the codec for a table targeting level.
func (o Options) compressionForLevel(level int) sstable.Compression {
	if level >= 0 && level < len(o.CompressionByLevel) {
		return o.CompressionByLevel[level]
	}
	return o.Compression
}

// bloomBitsForLevel resolves the filter sizing for a table targeting
// level. A by-level entry applies verbatim (0 disables the filter for
// that level); levels beyond the slice use the global setting.
func (o Options) bloomBitsForLevel(level int) int {
	if level >= 0 && level < len(o.BloomBitsPerKeyByLevel) {
		return o.BloomBitsPerKeyByLevel[level]
	}
	return o.BloomBitsPerKey
}

// syncManifest reports whether MANIFEST edits are fsynced.
func (o Options) syncManifest() bool {
	return o.SyncMode == SyncAll || o.SyncMode == SyncBoLT
}

// syncMinor reports whether L0 tables from minor compactions are
// fsynced.
func (o Options) syncMinor() bool {
	return o.SyncMode != SyncNone
}
