package harness

import (
	"testing"

	"noblsm/internal/dbbench"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
)

// The registry names read by name outside the packages that register
// them: the benchmark (bench/layers.go, bench/rep.go), a module of its
// own whose vet and tests cannot see a rename — its per-layer value
// would just read 0 — and the doctor report, lsminspect, dbbench -run,
// the recovery checks of contract.go and examples/crashrecovery. The stall ledger's names are added per cause below.
var (
	readCounters = []string{
		"engine.puts", "engine.gets", "engine.get_files_examined", "engine.user_bytes_written",
		"engine.compactions.minor", "engine.compactions.major", "engine.compactions.seek",
		"engine.compactions.trivial_moves",
		"engine.read_retries", "engine.reads_healed", "engine.tables_quarantined", "engine.bg.transient_errors",
		"engine.recovery.edits_undone", "engine.recovery.files_resurrected", "engine.recovery.wal_records_dropped",
		"engine.governor.paced_writes", "engine.governor.pacing_ns",
		"compaction.bytes_read", "compaction.bytes_written",
		"wal.records", "wal.bytes", "manifest.records", "manifest.bytes",
		"cache.block.hits", "cache.block.misses", "cache.block.fills",
		"cache.table.hits", "cache.table.misses", "cache.table.fills",
		"cache.cblock.hits", "cache.cblock.misses",
		"tracker.registered", "tracker.resolved", "tracker.preds_deleted", "tracker.polls", "tracker.syscall_checks",
		"ext4.syncs", "ext4.bytes_synced", "ext4.async_commits", "ext4.bytes_async_committed", "ext4.bytes_flushed",
		"ext4.journal_bytes", "ext4.journal_inodes",
		"ext4.stall.sync_ns", "ext4.stall.barrier_ns", "ext4.stall.throttle_ns",
		"ssd.reads", "ssd.writes", "ssd.flushes", "ssd.bytes_read", "ssd.bytes_written", "ssd.busy_ns",
	}
	readGauges = []string{"ext4.page_cache_bytes", "ext4.page_cache_free_bytes", "ext4.file_bytes"}
	readHists  = []string{"engine.group_commit_size", "compaction.duration_us"}
)

// TestRegistryNames runs a short NobLSM fill, overwrite and read —
// governor and compressed block tier on, so their names register too —
// with telemetry and without, and asserts every name read from outside
// is registered.
func TestRegistryNames(t *testing.T) {
	const ops = 4000
	counters := append([]string(nil), readCounters...)
	gauges := append([]string(nil), readGauges...)
	for c := obs.StallCause(0); int(c) < obs.NumStallCauses; c++ {
		counters = append(counters, c.Metric("count"), c.Metric("ns"))
		gauges = append(gauges, c.Metric("max_ns"))
	}
	for _, telemetry := range []bool{false, true} {
		reg := obs.NewRegistry()
		sink := obs.Sink{Metrics: reg}
		if telemetry {
			sink.Telemetry = obs.NewTelemetry(reg, 0, 0)
		}
		base := ScaledOptions(ops, 256, PaperTable64MB)
		base.GovernorEnabled = true
		base.CompressedBlockCacheBytes = 1 << 20
		tl := vclock.NewTimeline(0)
		st, err := NewStoreFaulted(tl, policy.NobLSM, base, base.PollInterval, sink, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		now := tl.Now()
		for _, w := range []string{dbbench.FillRandom, dbbench.Overwrite, dbbench.ReadRandom} {
			res, err := RunDBBench(st, now, w, ops, 256, 1, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			now = now.Add(res.Elapsed)
		}
		s := reg.Snapshot()
		check := func(kind string, names []string, registered func(string) bool) {
			for _, name := range names {
				if !registered(name) {
					t.Errorf("telemetry %v: %s %s is not registered", telemetry, kind, name)
				}
			}
		}
		check("counter", counters, func(n string) bool { _, ok := s.Counters[n]; return ok })
		check("gauge", gauges, func(n string) bool { _, ok := s.Gauges[n]; return ok })
		check("histogram", readHists, func(n string) bool { _, ok := s.Hists[n]; return ok })
	}
}
