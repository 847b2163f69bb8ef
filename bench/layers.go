package main

import (
	"fmt"
	"runtime"

	"noblsm/internal/obs"
)

// perLayer lists the per-layer metrics, layer = module. They have no
// bound: they explain an end-to-end number, they are not gated. Counts
// from the shared obs.Registry are deltas over the measured region;
// *_ns host costs come from the traced seam or, where the live path
// cannot be timed from outside, from a layer probe (probes.go).
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// engine
	add("ns", lower, "engine.put_self_host_ns", "engine.get_self_host_ns")
	add("ratio", lower, "engine.inline_bg_host_share")
	add("virt_ns", lower,
		"engine.write.enqueue_ns", "engine.write.group_wait_ns", "engine.write.throttle_ns",
		"engine.write.flush_ns", "engine.write.wal_append_ns", "engine.write.mem_apply_ns",
		"engine.read.memtable_ns", "engine.read.table_open_ns", "engine.read.table_fetch_ns")
	add("count", lower, "engine.stall.count")
	add("virt_ns", lower, "engine.stall.memtable_full_ns", "engine.stall.l0_slowdown_ns",
		"engine.stall.compaction_backlog_ns", "engine.stall.wal_rotate_ns")
	add("count", lower, "engine.compactions.minor", "engine.compactions.major",
		"engine.compactions.seek", "engine.compactions.trivial_moves")
	add("count", higher, "engine.group_commit_size")
	add("count", lower, "engine.get_files_examined_per_get")
	add("virt_ms", lower, "engine.recovery_virt_ms")
	add("ms", lower, "engine.recovery_host_ms")
	add("count", lower, "engine.lost_on_crash")
	add(virtUs, lower, "engine.open_lo_p99_us", "engine.open_hi_p99_us",
		"engine.open_hi_end_lag_us", "engine.open_gen_max_lag_us", "engine.async_virt_us_per_op")
	// compaction
	add("bytes", lower, "compaction.bytes_read", "compaction.bytes_written")
	add(virtUs, lower, "compaction.duration_us")
	add("ratio", lower, "compaction.bytes_written_per_user_byte")
	// wal, memtable, keys
	add("count", lower, "wal.records")
	add("bytes", lower, "wal.bytes")
	add("ns", lower, "wal.append_ns", "memtable.insert_ns", "memtable.get_ns", "keys.compare_ns")
	// sstable, block, bloom, compress, iterator
	add("count", lower, "sstable.tables_written")
	add("bytes", lower, "sstable.bytes_written")
	add("ns", lower, "sstable.build_ns_per_kb", "sstable.get_ns", "block.build_ns_per_entry",
		"block.seek_ns", "bloom.maycontain_ns")
	add("ratio", lower, "bloom.fp_rate")
	add("MB/s", higher, "compress.encode_mb_per_s", "compress.decode_mb_per_s")
	add("ratio", higher, "compress.ratio")
	add("ns", lower, "iterator.merge_next_ns", "iterator.scan_next_ns")
	// cache
	add("ratio", higher, "cache.block.hit_ratio")
	add("count", lower, "cache.block.fills")
	add("ratio", higher, "cache.table.hit_ratio")
	add("count", lower, "cache.table.fills")
	add("ratio", higher, "cache.cblock.hit_ratio")
	add("ns", lower, "cache.get_ns", "cache.insert_ns")
	// version
	add("count", lower, "version.manifest_records")
	add("bytes", lower, "version.manifest_bytes")
	// core
	add("count", lower, "tracker.registered")
	add("count", higher, "tracker.resolved", "tracker.preds_deleted")
	add("count", lower, "tracker.polls", "tracker.syscall_checks")
	add("bytes", lower, "core.shadow_bytes_peak")
	// vfs: the traced seam
	add("count", lower, "vfs.append_calls")
	add("bytes", lower, "vfs.append_bytes")
	add("virt_ns", lower, "vfs.append_virt_ns")
	add("count", lower, "vfs.sync_calls")
	add("virt_ns", lower, "vfs.sync_virt_ns")
	add("count", lower, "vfs.read_calls")
	add("bytes", lower, "vfs.read_bytes")
	add("virt_ns", lower, "vfs.read_virt_ns")
	add("count", lower, "vfs.create_calls", "vfs.remove_calls")
	add("bytes", lower, "vfs.wal_bytes", "vfs.table_bytes_written", "vfs.table_bytes_read", "vfs.manifest_bytes")
	// ext4, ssd
	add("count", lower, "ext4.syncs")
	add("bytes", lower, "ext4.bytes_synced")
	add("count", lower, "ext4.async_commits")
	add("bytes", lower, "ext4.bytes_async_committed", "ext4.bytes_flushed")
	add("virt_ns", lower, "ext4.stall.sync_ns", "ext4.stall.barrier_ns", "ext4.stall.throttle_ns")
	add("ns", lower, "ext4.host_ns_per_op")
	add("count", lower, "ssd.reads", "ssd.writes", "ssd.flushes")
	add("bytes", lower, "ssd.bytes_read", "ssd.bytes_written")
	add("virt_ns", lower, "ssd.busy_ns")
	add("ratio", lower, "ssd.utilisation")
	// reference passes
	add(virtUs, lower, "governor.open_p50_us", "governor.open_p99_us", "governor.closed_virt_us_per_op")
	add("count", lower, "governor.paced_writes")
	add("virt_ns", lower, "governor.pacing_ns")
	add("ratio", higher, "policy.fill_speedup_vs_leveldb")
	add("ratio", lower, "policy.fill_sync_ratio_vs_leveldb", "policy.fill_synced_bytes_ratio_vs_leveldb")
	// wire, obs
	add("ns", lower, "wire.encode_ns", "wire.decode_ns")
	add("%", lower, "obs.trace_overhead_pct")
	// host
	add("bytes", lower, "host.alloc_bytes_per_op")
	add("count", lower, "host.allocs_per_op")
	add("ratio", lower, "host.gc_cpu_share")
	add("MB", lower, "host.heap_peak_mb")
	add("ms", lower, "host.calib_ms")
	add("ratio", lower, "host.gen_share")
	add("count", higher, "host.gomaxprocs")
	add("count", lower, "host.noisy_reps")
	return defs
}()

// references are the traced run's extra passes; nil where the workload
// has none.
type references struct {
	plain    *repResult // same workload untraced: the overhead baseline
	leveldb  *repResult // fill under policy.LevelDB (paper fidelity)
	governor *repResult // overwrite with the admission governor on
	genShare float64
	noisy    int
}

// ledger assembles every per-layer metric of a traced rep. Metrics the
// workload does not exercise are reported as 0, so every traced run
// prints the same set.
func ledger(w *workload, r *repResult, tr *tracer, probes map[string]float64, ref references) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	delta := func(name string) float64 {
		return float64(r.after.Counters[name] - r.before.Counters[name])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops := tr.opAggregates()
	put, get := ops["put"], ops["get"]
	allOps := float64(put.Ops + get.Ops)

	// engine: self time is the op's span minus its children at the seam.
	m["engine.put_self_host_ns"] = ratio(float64(put.HostNs-put.ChildHostNs), float64(put.Ops))
	m["engine.get_self_host_ns"] = ratio(float64(get.HostNs-get.ChildHostNs), float64(get.Ops))
	m["engine.inline_bg_host_share"] = ratio(float64(put.FlushedHostNs+get.FlushedHostNs), float64(put.HostNs+get.HostNs))
	for p, name := range map[obs.Phase]string{
		obs.PhaseWriteEnqueue: "engine.write.enqueue_ns", obs.PhaseWriteGroupWait: "engine.write.group_wait_ns",
		obs.PhaseWriteThrottle: "engine.write.throttle_ns", obs.PhaseWriteFlush: "engine.write.flush_ns",
		obs.PhaseWriteWAL: "engine.write.wal_append_ns", obs.PhaseWriteApply: "engine.write.mem_apply_ns",
	} {
		m[name] = ratio(float64(tr.phaseNs[p]), float64(put.Ops))
	}
	for p, name := range map[obs.Phase]string{
		obs.PhaseReadMem: "engine.read.memtable_ns", obs.PhaseReadTableOpen: "engine.read.table_open_ns",
		obs.PhaseReadTableGet: "engine.read.table_fetch_ns",
	} {
		m[name] = ratio(float64(tr.phaseNs[p]), float64(get.Ops))
	}
	for c := obs.StallCause(0); int(c) < obs.NumStallCauses; c++ {
		m["engine.stall.count"] += delta("engine.stall." + c.String() + ".count")
	}
	for _, c := range []obs.StallCause{obs.StallMemtableFull, obs.StallL0Slowdown, obs.StallCompactionBacklog, obs.StallWALRotate} {
		m["engine.stall."+c.String()+"_ns"] = delta("engine.stall." + c.String() + ".ns")
	}
	for _, n := range []string{"minor", "major", "seek", "trivial_moves"} {
		m["engine.compactions."+n] = delta("engine.compactions." + n)
	}
	m["engine.group_commit_size"] = histMeanDelta(r, "engine.group_commit_size")
	m["engine.get_files_examined_per_get"] = ratio(delta("engine.get_files_examined"), delta("engine.gets"))
	m["engine.recovery_virt_ms"], m["engine.recovery_host_ms"] = r.recoveryVirtMs, r.recoveryHostMs
	m["engine.lost_on_crash"] = float64(r.lostOnCrash)
	m["engine.open_lo_p99_us"], m["engine.open_hi_p99_us"] = r.open[0].p99Us, r.open[2].p99Us
	m["engine.open_hi_end_lag_us"] = r.open[2].endLagUs
	for _, o := range r.open {
		if o.maxLagUs > m["engine.open_gen_max_lag_us"] {
			m["engine.open_gen_max_lag_us"] = o.maxLagUs
		}
	}
	if w.async {
		m["engine.async_virt_us_per_op"] = r.closedVirtUsPerOp
	}

	// compaction
	m["compaction.bytes_read"], m["compaction.bytes_written"] = delta("compaction.bytes_read"), delta("compaction.bytes_written")
	m["compaction.duration_us"] = histSumDelta(r, "compaction.duration_us")
	m["compaction.bytes_written_per_user_byte"] = ratio(delta("compaction.bytes_written"), delta("engine.user_bytes_written"))

	// wal, version
	m["wal.records"], m["wal.bytes"] = delta("wal.records"), delta("wal.bytes")
	m["version.manifest_records"], m["version.manifest_bytes"] = delta("manifest.records"), delta("manifest.bytes")

	// sstable: what crossed the seam into table files
	m["sstable.tables_written"] = float64(tr.agg[spanCreate][classTable].Calls)
	m["sstable.bytes_written"] = float64(tr.agg[spanAppend][classTable].Bytes)

	// cache
	for _, tier := range []string{"block", "table", "cblock"} {
		hits, misses := delta("cache."+tier+".hits"), delta("cache."+tier+".misses")
		m["cache."+tier+".hit_ratio"] = ratio(hits, hits+misses)
	}
	m["cache.block.fills"], m["cache.table.fills"] = delta("cache.block.fills"), delta("cache.table.fills")

	// core
	for _, n := range []string{"registered", "resolved", "preds_deleted", "polls", "syscall_checks"} {
		m["tracker."+n] = delta("tracker." + n)
	}
	m["core.shadow_bytes_peak"] = float64(tr.shadowPeak)

	// vfs
	appends, syncs, reads := tr.sum(spanAppend), tr.sum(spanSync), tr.sum(spanReadAt)
	m["vfs.append_calls"], m["vfs.append_bytes"], m["vfs.append_virt_ns"] = float64(appends.Calls), float64(appends.Bytes), float64(appends.VirtNs)
	m["vfs.sync_calls"], m["vfs.sync_virt_ns"] = float64(syncs.Calls), float64(syncs.VirtNs)
	m["vfs.read_calls"], m["vfs.read_bytes"], m["vfs.read_virt_ns"] = float64(reads.Calls), float64(reads.Bytes), float64(reads.VirtNs)
	m["vfs.create_calls"], m["vfs.remove_calls"] = float64(tr.sum(spanCreate).Calls), float64(tr.sum(spanRemove).Calls)
	m["vfs.wal_bytes"] = float64(tr.agg[spanAppend][classWAL].Bytes)
	m["vfs.table_bytes_written"] = float64(tr.agg[spanAppend][classTable].Bytes)
	m["vfs.table_bytes_read"] = float64(tr.agg[spanReadAt][classTable].Bytes)
	m["vfs.manifest_bytes"] = float64(tr.agg[spanAppend][classManifest].Bytes)

	// ext4, ssd
	for _, n := range []string{"syncs", "bytes_synced", "async_commits", "bytes_async_committed", "bytes_flushed",
		"stall.sync_ns", "stall.barrier_ns", "stall.throttle_ns"} {
		m["ext4."+n] = delta("ext4." + n)
	}
	var seamHostNs int64
	for n := spanName(0); n < numSpans; n++ {
		seamHostNs += tr.sum(n).HostNs
	}
	m["ext4.host_ns_per_op"] = ratio(float64(seamHostNs), allOps)
	for _, n := range []string{"reads", "writes", "flushes", "bytes_read", "bytes_written", "busy_ns"} {
		m["ssd."+n] = delta("ssd." + n)
	}
	m["ssd.utilisation"] = ratio(delta("ssd.busy_ns"), float64(r.virtSpanNs))

	// reference passes
	if g := ref.governor; g != nil {
		m["governor.open_p50_us"], m["governor.open_p99_us"] = g.open[1].p50Us, g.open[1].p99Us
		m["governor.closed_virt_us_per_op"] = g.closedVirtUsPerOp
		m["governor.paced_writes"] = float64(g.after.Counters["engine.governor.paced_writes"] - g.before.Counters["engine.governor.paced_writes"])
		m["governor.pacing_ns"] = float64(g.after.Counters["engine.governor.pacing_ns"] - g.before.Counters["engine.governor.pacing_ns"])
	}
	if l := ref.leveldb; l != nil {
		m["policy.fill_speedup_vs_leveldb"] = ratio(l.closedVirtUsPerOp, ref.plain.closedVirtUsPerOp)
		m["policy.fill_sync_ratio_vs_leveldb"] = ratio(float64(ref.plain.closedSyncs), float64(l.closedSyncs))
		m["policy.fill_synced_bytes_ratio_vs_leveldb"] = ratio(float64(ref.plain.closedBytesSynced), float64(l.closedBytesSynced))
	}

	// obs: what tracing cost, against the untraced rep of this run
	plainKops := float64(ref.plain.measuredOps) / ref.plain.wallS
	tracedKops := float64(r.measuredOps) / r.wallS
	m["obs.trace_overhead_pct"] = 100 * (plainKops - tracedKops) / plainKops

	// host
	m["host.alloc_bytes_per_op"] = ratio(float64(ref.plain.allocBytes), float64(ref.plain.measuredOps))
	m["host.allocs_per_op"] = ratio(float64(ref.plain.allocs), float64(ref.plain.measuredOps))
	m["host.gc_cpu_share"] = ratio(ref.plain.gcCPUS, ref.plain.cpuS)
	m["host.heap_peak_mb"] = float64(tr.heapPeak) / (1 << 20)
	m["host.calib_ms"] = r.calibBeforeMs
	m["host.gen_share"] = ref.genShare
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["host.noisy_reps"] = float64(ref.noisy)

	for name, v := range probes {
		if _, ok := m[name]; !ok {
			panic(fmt.Sprintf("probe %q feeds no per-layer metric", name))
		}
		m[name] = v
	}
	return m
}

// histMeanDelta and histSumDelta read a registry histogram's growth
// over the measured region.
func histSumDelta(r *repResult, name string) float64 {
	a, b := r.after.Hists[name], r.before.Hists[name]
	return a.Mean*float64(a.Count) - b.Mean*float64(b.Count)
}

func histMeanDelta(r *repResult, name string) float64 {
	n := r.after.Hists[name].Count - r.before.Hists[name].Count
	if n == 0 {
		return 0
	}
	return histSumDelta(r, name) / float64(n)
}
