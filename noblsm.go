// Package noblsm is a reproduction of "NobLSM: An LSM-tree with
// Non-blocking Writes for SSDs" (Dang, Ye, Hu, Wang — DAC 2022) as a
// self-contained Go library.
//
// The package bundles the full stack the paper builds and evaluates:
//
//   - a LevelDB-architecture LSM-tree engine (WAL, memtable, SSTables,
//     MANIFEST, leveled + seek compactions) — internal/engine;
//   - a faithful simulation of ext4's data=ordered journaling with the
//     paper's two kernel extensions (check_commit / is_committed and
//     the Pending/Committed inode tables) — internal/ext4;
//   - an SSD device model with bandwidth, latency and flush-barrier
//     semantics, calibrated to the paper's Samsung PM883 — internal/ssd;
//   - NobLSM itself: crash-consistent major compactions without fsync,
//     via asynchronous commit tracking and shadow predecessor
//     retention — internal/core;
//   - the compared systems (BoLT, L2SM, HyperLevelDB, PebblesDB, a
//     RocksDB-like configuration, and a volatile LevelDB) as policies
//     over the same engine — internal/policy;
//   - db_bench and YCSB workload generators plus the experiment
//     harness regenerating every table and figure of the paper's
//     evaluation — internal/harness.
//
// Everything runs in virtual time: device transfers, journal commits
// and compaction work are charged to logical timelines, so the paper's
// multi-hour SSD experiments replay deterministically in seconds. Data
// operations are real — files, crashes, and recovery all actually
// happen — only the clock is simulated.
//
// The quickest way in:
//
//	db, err := noblsm.Open(noblsm.NobLSM)
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//	db.Crash()   // power cut: page cache + uncommitted journal lost
//	db.Reopen()  // recovery; SSTable contents are intact
//
// For experiments, see cmd/dbbench, cmd/ycsbbench, cmd/syncstudy and
// cmd/crashtest, and the benchmarks in bench_test.go.
package noblsm

import (
	"fmt"

	"noblsm/internal/core"
	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

// Variant selects which of the paper's systems the store behaves as.
type Variant = policy.Variant

// The available systems (see internal/policy for what each models).
const (
	LevelDB      = policy.LevelDB
	Volatile     = policy.Volatile
	NobLSM       = policy.NobLSM
	BoLT         = policy.BoLT
	L2SM         = policy.L2SM
	HyperLevelDB = policy.HyperLevelDB
	RocksDB      = policy.RocksDB
	PebblesDB    = policy.PebblesDB
)

// ErrNotFound is returned by Get for missing or deleted keys.
var ErrNotFound = engine.ErrNotFound

// Config tunes a store beyond the variant preset. The zero value uses
// the engine defaults (LevelDB 1.23's configuration).
type Config struct {
	// WriteBufferSize is the memtable size triggering a minor
	// compaction (default 4 MiB).
	WriteBufferSize int64
	// TableFileSize is the SSTable cut size (default 2 MiB; the
	// paper standardizes its evaluation on 64 MiB).
	TableFileSize int64
	// BloomBitsPerKey sizes table filters (default 10; 0 keeps the
	// default, negative disables).
	BloomBitsPerKey int
	// CommitInterval is ext4's asynchronous commit period and
	// NobLSM's matching poll interval (default 5 s of virtual time).
	CommitInterval vclock.Duration
	// Seed fixes the run's deterministic randomness.
	Seed int64
}

// DB is a key-value store on its own simulated SSD + ext4 stack, with
// a built-in timeline so simple uses never touch virtual time. All
// methods are safe for concurrent use in the sense the engine defines
// (a global mutex), but the built-in timeline makes this convenience
// type single-logical-threaded; experiments needing parallel clients
// use internal/harness directly.
type DB struct {
	variant Variant
	opts    engine.Options
	tl      *vclock.Timeline
	dev     *ssd.Device
	fs      *ext4.FS
	db      *engine.DB
	reg     *obs.Registry
}

// Open provisions a fresh simulated stack for the variant.
func Open(v Variant, cfg ...Config) (*DB, error) {
	var c Config
	if len(cfg) > 1 {
		return nil, fmt.Errorf("noblsm: pass at most one Config")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	base := engine.DefaultOptions()
	if c.WriteBufferSize > 0 {
		base.WriteBufferSize = c.WriteBufferSize
	}
	if c.TableFileSize > 0 {
		base.TableFileSize = c.TableFileSize
		base.Picker.BaseLevelBytes = 5 * c.TableFileSize
	}
	if c.BloomBitsPerKey != 0 {
		base.BloomBitsPerKey = c.BloomBitsPerKey
		if c.BloomBitsPerKey < 0 {
			base.BloomBitsPerKey = 0
		}
	}
	if c.CommitInterval > 0 {
		base.PollInterval = c.CommitInterval
	}
	if c.Seed != 0 {
		base.Seed = c.Seed
	}
	opts, err := policy.Options(v, base)
	if err != nil {
		return nil, err
	}

	// One registry spans the whole stack, so Property("noblsm.metrics")
	// shows engine, filesystem and device counters side by side.
	reg := obs.NewRegistry()
	opts.Metrics = reg
	d := &DB{variant: v, opts: opts, tl: vclock.NewTimeline(0), reg: reg}
	d.dev = ssd.NewObserved(ssd.PM883(), reg)
	fsCfg := ext4.DefaultConfig()
	if c.CommitInterval > 0 {
		fsCfg.CommitInterval = c.CommitInterval
	}
	d.fs = ext4.NewObserved(fsCfg, d.dev, reg, nil)
	d.db, err = engine.Open(d.tl, d.fs, opts)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Put stores a key/value pair.
func (d *DB) Put(key, value []byte) error { return d.db.Put(d.tl, key, value) }

// Get returns the newest value of key, or ErrNotFound.
func (d *DB) Get(key []byte) ([]byte, error) { return d.db.Get(d.tl, key) }

// Delete writes a tombstone for key.
func (d *DB) Delete(key []byte) error { return d.db.Delete(d.tl, key) }

// MultiGet looks up a batch of keys against one consistent read view,
// returning values and errors parallel to keys (a missing key yields
// ErrNotFound in its slot). Batching amortizes the per-request
// overhead across the batch and probes tables in sorted-key order.
func (d *DB) MultiGet(keys [][]byte) ([][]byte, []error) {
	return d.db.MultiGet(d.tl, keys)
}

// Scan calls fn for up to limit live keys starting at start (inclusive
// lower bound); fn returning false stops early. The iterator is closed
// before Scan returns, so the tables it read may be reclaimed.
func (d *DB) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	it, err := d.db.NewIterator(d.tl)
	if err != nil {
		return err
	}
	defer it.Close()
	if start == nil {
		it.First()
	} else {
		it.Seek(start)
	}
	for n := 0; it.Valid() && n < limit; n++ {
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Err()
}

// Crash simulates a sudden power cut: the page cache and every
// uncommitted journal transaction are lost, and the store must be
// Reopened before further use.
func (d *DB) Crash() {
	d.fs.Crash(d.tl.Now())
}

// Reopen recovers the store after Crash (or a Close), replaying the
// MANIFEST and the surviving write-ahead-log records.
func (d *DB) Reopen() error {
	db, err := engine.Open(d.tl, d.fs, d.opts)
	if err != nil {
		return err
	}
	d.db = db
	return nil
}

// Close releases the store's handles (no implicit sync, as LevelDB).
func (d *DB) Close() error { return d.db.Close(d.tl) }

// Now reports the store's virtual clock.
func (d *DB) Now() vclock.Time { return d.tl.Now() }

// AdvanceTime moves the virtual clock forward — e.g. past a journal
// commit interval, so asynchronous commits become durable.
func (d *DB) AdvanceTime(dur vclock.Duration) { d.tl.Advance(dur) }

// Stats bundles the observability counters of the whole stack.
type Stats struct {
	Engine  engine.Stats
	FS      ext4.Stats
	Device  ssd.Stats
	Tracker core.Stats
}

// Stats snapshots the stack's counters.
func (d *DB) Stats() Stats {
	s := Stats{
		Engine: d.db.Stats(),
		FS:     d.fs.Stats(),
		Device: d.dev.Stats(),
	}
	if tr := d.db.Tracker(); tr != nil {
		s.Tracker = tr.Stats()
	}
	return s
}

// Variant reports which system this store is configured as.
func (d *DB) Variant() Variant { return d.variant }

// Property renders one of the engine's introspection properties
// ("noblsm.stats", "noblsm.sstables", "noblsm.tracker",
// "noblsm.metrics"); ok is false for unknown names.
func (d *DB) Property(name string) (value string, ok bool) {
	return d.db.Property(name)
}
