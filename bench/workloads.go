package main

import (
	"math/rand"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/harness"
	"noblsm/internal/sstable"
	"noblsm/internal/version"
	"noblsm/internal/ycsb"
)

const valueSize = 1024

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

type op struct {
	kind opKind
	key  int64
}

// stream yields one client's operations. Streams are built from the
// run's seed alone; the engine sees only what they generate.
type stream interface{ next() op }

// uniform draws keys uniformly from [lo, lo+span), db_bench style
// (rand % n: duplicates and gaps are part of the workload).
type uniform struct {
	rnd      *rand.Rand
	kind     opKind
	lo, span int64
}

func (u *uniform) next() op { return op{u.kind, u.lo + u.rnd.Int63n(u.span)} }

// ycsbA adapts the YCSB generator; workload A issues reads and updates
// only.
type ycsbA struct{ g *ycsb.Generator }

func (y ycsbA) next() op {
	o := y.g.Next()
	if o.Kind == ycsb.OpRead {
		return op{opGet, o.KeyNum}
	}
	return op{opPut, o.KeyNum}
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string

	// records is the key space and sizes the scaled geometry
	// (harness.ScaledOptions); preload random Puts run unmeasured before
	// the phase; ops closed-loop operations are measured, then openOps
	// more at each of openRates (10³ ops per virtual second).
	records, preload, ops, openOps int64
	clients                        int
	openRates                      [3]float64
	// openLimitUs is the p99 limit a rate must meet to count as
	// sustained.
	openLimitUs float64

	measured opKind // what the measured stream issues (mixed: both)
	mixed    bool   // YCSB-A over ycsb keys instead of db_bench keys
	quick    bool   // -quick: the geometry of quickScale records, 1 ms probes
	async    bool   // AsyncCompaction: the goroutine executor
	cold     bool   // power-cut and reopen before measuring
	hotSpan  int64  // >0: Gets over one contiguous range, warmed first
	readTune bool   // PR 7 read options and compressible values
	cache    int64  // >0: BlockCacheBytes override

	// byHand keeps the workload out of BENCHMARK.json: `-workload
	// <name>`, `-workload all` and the tests run it, the driver does not.
	byHand bool

	// durability ends each rep with the §5.2 power-cut check
	// (crashTail). refLevelDB and refGovernor name the reference pass
	// the traced run adds: the same closed loop under policy.LevelDB
	// (paper fidelity), the same rep with the admission governor on.
	durability, refLevelDB, refGovernor bool
}

// quickScale is the record count -quick sizes the geometry for, in
// place of the few it runs: sized for much under 10 k records,
// harness.ScaledOptions' floors (32 KiB tables, 1 ms commits) stop
// scaling, a journal commit costs more than its interval and virtual
// time runs away.
const quickScale = 20_000

// options derives the engine geometry the workload runs with.
func (w *workload) options() engine.Options {
	scale := w.records
	if w.quick {
		scale = quickScale
	}
	o := harness.ScaledOptions(scale, valueSize, harness.PaperTable64MB)
	o.AsyncCompaction = w.async
	if w.cache > 0 {
		o.BlockCacheBytes = w.cache
	}
	if w.readTune {
		// The PR 7 read path as harness.RunReadBench's tuned side sets
		// it: larger blocks, a codec ladder, the compressed cache tier
		// and per-level filter sizing.
		o.BlockSize = 8192
		o.Compression = sstable.FastCompression
		byLevel := make([]sstable.Compression, version.NumLevels)
		for l := range byLevel {
			byLevel[l] = sstable.MaxCompression
			if l < 2 {
				byLevel[l] = sstable.FastCompression
			}
		}
		o.CompressionByLevel = byLevel
		o.CompressedBlockCacheBytes = 2 * o.BlockCacheBytes
		o.BloomBitsPerKeyByLevel = []int{14, 12, 10, 10, 8, 8, 6}[:version.NumLevels]
	}
	return o
}

func (w *workload) key(k int64) []byte {
	if w.mixed {
		return ycsb.Key(k)
	}
	return dbbench.Key(k)
}

// value renders the round-th value written to key k. Rounds differ in
// content, so a stale read is a wrong read.
func (w *workload) value(dst []byte, k int64, round uint32) []byte {
	if w.readTune {
		return dbbench.CompressibleValue(dst, k, int(round), valueSize)
	}
	return dbbench.Value(dst, k, int(round), valueSize)
}

// Seeds of the streams are offsets of the run's seed, so phases do not
// replay each other's key sequence. The preload uses the seed itself:
// that is what harness.RunFig4 feeds fillrandom, and `fill` must
// reproduce its virtual time exactly.
const (
	seedMeasured = 1_000_003
	seedOpen     = 2_000_003
	seedTail     = 3_000_003
	seedArrivals = 4_000_003
	// clientStride separates the clients of one phase
	// (harness.RunYCSB's stride).
	clientStride = 104729
)

// stream builds client c's stream for a phase.
func (w *workload) stream(seed int64, c int) stream {
	seed += int64(c) * clientStride
	if w.mixed {
		return ycsbA{ycsb.NewGenerator(ycsb.WorkloadA, w.records, seed)}
	}
	u := &uniform{rnd: rand.New(rand.NewSource(seed)), kind: w.measured, span: w.records}
	if w.hotSpan > 0 {
		// The range sits in the middle of the key space, so it spans
		// table boundaries like any other range.
		u.lo, u.span = (w.records-w.hotSpan)/2, w.hotSpan
	}
	return u
}

// workloads lists the six workloads in the order the README documents
// them. Sizes are the issue's defaults shrunk to fit the run-time cap
// (see README "Sizes"); each run still measures well over 100 k ops.
func workloads(quick bool) []*workload {
	ws := []*workload{
		{
			name: "fill", why: "random Puts into an empty store (Fig 4a, Table 1): WAL, memtable, flush and NobLSM's sync avoidance work; the read path does none",
			records: 100_000, ops: 100_000, openOps: 10_000, clients: 1,
			openRates: [3]float64{21, 31, 41}, openLimitUs: 20_000, measured: opPut,
			durability: true, refLevelDB: true,
		},
		{
			name: "overwrite", why: "uniform overwrites of a loaded store, closed then open loop (Fig 4b): compaction and write stalls dominate",
			records: 50_000, preload: 50_000, ops: 100_000, openOps: 10_000, clients: 1,
			openRates: [3]float64{16, 23, 31}, openLimitUs: 20_000, measured: opPut,
			refGovernor: true,
		},
		{
			name: "read_cold", why: "uniform Gets after a power cut, working set far above the block cache: bloom, block fetch, decode, page faults and device reads work; the block cache does not",
			records: 20_000, preload: 20_000, ops: 100_000, openOps: 8_000, clients: 1,
			openRates: [3]float64{174, 211, 236}, openLimitUs: 250, measured: opGet,
			cold: true, readTune: true,
		},
		{
			name: "read_hot", why: "Gets over one 10 k-key range that fits a 32 MiB block cache: memtable probe, version lookup and cache hits work; device and codec do not",
			records: 50_000, preload: 50_000, ops: 1_000_000, openOps: 30_000, clients: 1,
			openRates: [3]float64{233, 283, 316}, openLimitUs: 200, measured: opGet,
			hotSpan: 10_000, cache: 32 << 20, cold: true,
		},
		{
			name: "mixed", why: "YCSB-A, 50/50 zipfian reads and updates from 4 clients (Fig 5b): write and read layers side by side, so a write gain that costs reads shows",
			records: 50_000, preload: 50_000, ops: 100_000, openOps: 5_000, clients: 4,
			openRates: [3]float64{22, 33, 44}, openLimitUs: 20_000, mixed: true,
		},
		{
			name: "fill_async", why: "fill on the goroutine executor (AsyncCompaction): the only workload with real background goroutines; its virtual clock depends on scheduling",
			records: 100_000, ops: 100_000, openOps: 10_000, clients: 1,
			openRates: [3]float64{21, 31, 41}, openLimitUs: 20_000, measured: opPut, async: true,
			// Client and background goroutines want both of this host's
			// two cores; whenever a neighbour holds one, the rep is up to
			// half as fast, for as long as the neighbour stays. The
			// driver's ten runs spread 26 % in host_kops_per_s, past any
			// bound it accepts, so it gates a code change on the inline
			// workloads only.
			byHand: true,
		},
	}
	if quick {
		// A thousand operations on quickScale's geometry, for the tests.
		// The store is a different one at this size, so the rates are
		// halved to stay below its capacity.
		for _, w := range ws {
			w.quick = true
			w.records, w.ops, w.openOps = 1_000, 1_000, 100
			for i := range w.openRates {
				w.openRates[i] /= 2
			}
			if w.preload > 0 {
				w.preload = w.records
			}
			if w.hotSpan > 0 {
				w.hotSpan = 250
			}
		}
	}
	return ws
}
