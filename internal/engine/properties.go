package engine

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"

	"noblsm/internal/cache"
	"noblsm/internal/ext4"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// This file implements LevelDB-style introspection properties. A
// property is a named, human-readable rendering of internal state;
// the stable names are
//
//	noblsm.stats     per-level table (files, bytes, read/write
//	                 amplification) plus shadow/retained tables and
//	                 the stall total
//	noblsm.sstables  every live table per level with its key range
//	noblsm.tracker   the NobLSM tracker's dependency and protected-
//	                 file inventory
//	noblsm.metrics   the full metrics registry, one metric per line
//
//	noblsm.background-errors
//	                 the background-error state machine: read-only
//	                 flag, permanent cause, WAL poisoning, retry and
//	                 self-healing counters
//
//	noblsm.doctor    a one-page health report: level shape, bg-error
//	                 state, device writes by origin (writeback, fsync,
//	                 journal), the page cache's host memory, backups,
//	                 the stall ledger and, with telemetry on, the top
//	                 latency phases and the most recent time-series
//	                 windows
//
// lsminspect -props dumps all of them; tests assert on their shape.

// PropertyNames lists every supported property in display order.
var PropertyNames = []string{
	"noblsm.stats",
	"noblsm.sstables",
	"noblsm.tracker",
	"noblsm.background-errors",
	"noblsm.metrics",
	"noblsm.doctor",
}

// Property renders the named property, or ok=false for an unknown
// name.
func (db *DB) Property(name string) (value string, ok bool) {
	switch name {
	case "noblsm.stats":
		return db.propertyStats(), true
	case "noblsm.sstables":
		return db.propertySSTables(), true
	case "noblsm.tracker":
		return db.propertyTracker(), true
	case "noblsm.background-errors":
		return db.propertyBackgroundErrors(), true
	case "noblsm.metrics":
		return db.propertyMetrics(), true
	case "noblsm.doctor":
		return db.propertyDoctor(), true
	}
	return "", false
}

// propertyMetrics renders the registry plus the observability plane's
// own loss accounting: a truncated trace history or an overwritten
// time-series window must be visible, not silent.
func (db *DB) propertyMetrics() string {
	s := db.reg.String()
	s += db.cacheRatioLines()
	if db.trace != nil {
		s += fmt.Sprintf("%-44s %d\n", "obs.trace.dropped", db.trace.Dropped())
		s += fmt.Sprintf("%-44s %d\n", "obs.trace.retained", db.trace.Len())
	}
	if db.tel != nil {
		s += fmt.Sprintf("%-44s %d\n", "obs.series.dropped_windows", db.tel.Series.Dropped())
	}
	return s
}

// propertyDoctor renders the one-page health report.
func (db *DB) propertyDoctor() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== noblsm doctor ==\n\n")
	fmt.Fprintf(&b, "-- lsm shape --\n%s\n", db.propertyStats())
	fmt.Fprintf(&b, "-- compaction --\n%s\n", db.adoptionLine())
	fmt.Fprintf(&b, "-- background errors --\n%s\n", db.propertyBackgroundErrors())
	fmt.Fprintf(&b, "-- block caches --\n%s\n", db.cacheReport())
	fmt.Fprintf(&b, "-- device writes --\n%s\n", db.deviceWriteReport())
	fmt.Fprintf(&b, "-- page cache --\n%s\n", db.pageCacheLine())
	fmt.Fprintf(&b, "-- backup --\n%s\n", db.backupReport())
	fmt.Fprintf(&b, "-- recovery --\nedits undone %d, files resurrected %d, log records dropped %d\n\n",
		db.m.recoveryUndone.Value(), db.m.recoveryResurrected.Value(), db.m.recoveryWALDropped.Value())
	fmt.Fprintf(&b, "-- admission governor --\n%s\n", db.governor.String())
	fmt.Fprintf(&b, "-- stall ledger --\n%s\n", db.stalls.String())
	if db.tel == nil {
		fmt.Fprintf(&b, "-- telemetry --\n")
		fmt.Fprintf(&b, "(disabled: Options.Telemetry is nil — per-op attribution\n")
		fmt.Fprintf(&b, " and windowed percentiles are unavailable)\n")
	} else {
		fmt.Fprintf(&b, "-- latency phases (by total time) --\n%s\n", db.phaseTable())
		fmt.Fprintf(&b, "-- recent windows (interval %v) --\n%s",
			db.tel.Series.Interval(), db.tel.Series.Tail(8))
	}
	if db.trace != nil {
		fmt.Fprintf(&b, "\n-- trace ring --\nretained=%d dropped=%d\n",
			db.trace.Len(), db.trace.Dropped())
	}
	return b.String()
}

// adoptionLine renders the doctor's compaction line: how many input
// data blocks major compactions appended as they were stored, and
// their share of the bytes compactions read.
func (db *DB) adoptionLine() string {
	blocks, bytes, read := db.m.adoptedBlocks.Value(), db.m.adoptedBytes.Value(), db.m.bytesRead.Value()
	share := 0.0
	if read > 0 {
		share = 100 * float64(bytes) / float64(read)
	}
	return fmt.Sprintf("compaction: %d data blocks adopted (%.1f %% of compacted bytes)\n", blocks, share)
}

// deviceWriteReport renders the doctor's device section: every byte
// the device wrote, by who asked for it. The filesystem submits all of
// them — background writeback, fsync data, journal metadata — so the
// three add up to the device's total, and a journal share that grows
// with the number of files on disk instead of with the write rate is
// the sign of commits carrying inodes that did not change.
func (db *DB) deviceWriteReport() string {
	c := db.reg.Snapshot().Counters
	total, ok := c["ssd.bytes_written"]
	if !ok {
		return "(the filesystem and device do not publish into this registry)\n"
	}
	var b strings.Builder
	line := func(name string, v int64, note string) {
		share := 0.0
		if total > 0 {
			share = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(&b, "%-26s %12d bytes %5.1f%%  %s\n", name, v, share, note)
	}
	fmt.Fprintf(&b, "%-26s %12d bytes\n", "ssd.bytes_written", total)
	line("  ext4.bytes_flushed", c["ext4.bytes_flushed"], "background writeback")
	line("  ext4.bytes_synced", c["ext4.bytes_synced"], fmt.Sprintf("data of %d fsyncs", c["ext4.syncs"]))
	line("  ext4.journal_bytes", c["ext4.journal_bytes"],
		fmt.Sprintf("%d inodes journaled; %d async commits", c["ext4.journal_inodes"], c["ext4.async_commits"]))
	return b.String()
}

// pageCacheLine renders the doctor's host-memory lines. The simulated
// page cache holds every file's bytes in this process, in whole
// extents and, at the end of each file no handle holds open, a tail
// piece of whole pages, beside free lists of chunks whose files are
// gone; the gap between the first two numbers is the unused end of
// each open file's last extent and of each piece's last page. The
// second line splits the process's resident memory: the Go heap's
// objects beside the slabs every filesystem of the process took for
// its page cache, off the heap outside race builds, and the spare ones
// among them that no live filesystem holds.
func (db *DB) pageCacheLine() string {
	g := db.reg.Snapshot().Gauges
	held, ok := g["ext4.page_cache_bytes"]
	if !ok {
		return "(the filesystem does not publish into this registry)\n"
	}
	mb := func(n int64) float64 { return float64(n) / (1 << 20) }
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	slabs, spare := ext4.Slabs()
	where := "off"
	if !ext4.OffHeap {
		where = "on"
	}
	return fmt.Sprintf("page cache: %.1f MB held for %.1f MB of files, %.1f MB of it in tail pieces, %.1f MB free\n"+
		"host memory: Go heap %.1f MB of objects; page-cache slabs %.1f MB %s the heap, %.1f MB of them spare\n",
		mb(held), mb(g["ext4.file_bytes"]), mb(g["ext4.page_cache_tail_bytes"]), mb(g["ext4.page_cache_free_bytes"]),
		mb(int64(heap[0].Value.Uint64())), mb(slabs), where, mb(spare))
}

// phaseTable renders the attribution timers: op-class totals first,
// then every populated phase ordered by accumulated time.
func (db *DB) phaseTable() string {
	type row struct {
		name           string
		n              int64
		mean, p99, tot vclock.Duration
	}
	snap := func(name string, t *obs.Timer) (row, bool) {
		h := t.Snapshot()
		if h.Count() == 0 {
			return row{}, false
		}
		return row{name, h.Count(), h.Mean(), h.Percentile(99),
			vclock.Duration(int64(h.Mean()) * h.Count())}, true
	}
	var b strings.Builder
	line := func(r row) {
		fmt.Fprintf(&b, "%-18s n=%-9d mean=%-10v p99=%-10v total=%v\n",
			r.name, r.n, r.mean, r.p99, r.tot)
	}
	for _, t := range []struct {
		name  string
		timer *obs.Timer
	}{{"write.total", db.tel.WriteTotal()}, {"read.total", db.tel.ReadTotal()}} {
		if r, ok := snap(t.name, t.timer); ok {
			line(r)
		}
	}
	var phases []row
	for p := 0; p < obs.NumPhases; p++ {
		if r, ok := snap(obs.Phase(p).String(), db.tel.PhaseTimer(obs.Phase(p))); ok {
			phases = append(phases, r)
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].tot > phases[j].tot })
	for _, r := range phases {
		line(r)
	}
	if b.Len() == 0 {
		return "(no operations observed)\n"
	}
	return b.String()
}

// cacheRatioLines renders the derived hit ratios of the cache tiers in
// registry style, appended to noblsm.metrics (ratios are views over
// the raw counters, which stay authoritative).
func (db *DB) cacheRatioLines() string {
	var b strings.Builder
	ratio := func(name string, c *cache.Cache) {
		hits, misses := c.Stats()
		if hits+misses == 0 {
			return
		}
		fmt.Fprintf(&b, "%-44s %.4f\n", name, float64(hits)/float64(hits+misses))
	}
	ratio("cache.block.hit_ratio", db.tcache.blocks)
	if db.tcache.cblocks != nil {
		ratio("cache.cblock.hit_ratio", db.tcache.cblocks)
	}
	ratio("cache.table.hit_ratio", db.tcache.tables)
	return b.String()
}

// cacheReport renders the doctor's cache section: one line per tier
// with hits, misses, fills, the hit ratio and current occupancy.
func (db *DB) cacheReport() string {
	var b strings.Builder
	line := func(name string, c *cache.Cache) {
		hits, misses := c.Stats()
		total := hits + misses
		r := 0.0
		if total > 0 {
			r = float64(hits) / float64(total)
		}
		fmt.Fprintf(&b, "%-8s hits=%-9d misses=%-9d fills=%-9d ratio=%.3f used=%d entries=%d\n",
			name, hits, misses, c.Fills(), r, c.Used(), c.Len())
	}
	line("block", db.tcache.blocks)
	if db.tcache.cblocks != nil {
		line("cblock", db.tcache.cblocks)
	} else {
		fmt.Fprintf(&b, "%-8s (disabled: Options.CompressedBlockCacheBytes is 0)\n", "cblock")
	}
	line("table", db.tcache.tables)
	// A point read decodes one window of a compressed block, as far as
	// its entry; beside that, what it probed to get there. A MultiGet's
	// key counts as a Get, but only a read of the newest versions can
	// tell a bloom false positive (probeLevel).
	if gets := db.m.gets.Value() + db.m.multiGetKeys.Value(); gets > 0 {
		b.WriteString("point reads decoded ")
		if decoded, declared := db.m.getDecodedBytes.Value(), db.m.getDeclaredBytes.Value(); declared > 0 {
			fmt.Fprintf(&b, "%.1f %% of the blocks they missed (%d of %d bytes)", 100*float64(decoded)/float64(declared), decoded, declared)
		} else {
			b.WriteString("no compressed block")
		}
		fmt.Fprintf(&b, "; %.2f files examined per Get, %d bloom false positives\n",
			float64(db.m.getFilesExamined.Value())/float64(gets), db.m.getBloomFalsePositives.Value())
	}
	return b.String()
}

// backupReport renders the doctor's backup section from the registry.
// A backup holds nothing once it returns, so its counts are all there
// is to show.
func (db *DB) backupReport() string {
	n := db.m.backups.Value()
	if n == 0 {
		return "backups taken         0\n"
	}
	return fmt.Sprintf("backups taken         %d\nlast backup           seq %d at %v\nfiles linked          %d\nbytes copied          %d\n",
		n, db.m.lastBackupSeq.Value(), vclock.Time(db.m.lastBackupAt.Value()),
		db.m.backupLinked.Value(), db.m.backupCopied.Value())
}

// propertyStats renders the per-level table and headline counters.
func (db *DB) propertyStats() string {
	db.mu.Lock()
	current := db.current
	memBytes := db.mem.ApproximateMemoryUsage()
	db.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "Level  Files  Bytes      Shadow  Retained\n")
	fmt.Fprintf(&b, "-----  -----  ---------  ------  --------\n")
	var totalFiles int
	var totalBytes int64
	for level := 0; level < version.NumLevels; level++ {
		files := current.Files[level]
		if len(files) == 0 && level > 1 {
			continue
		}
		var bytes, retained int64
		shadow := 0
		for _, f := range files {
			bytes += f.Size
			if f.Hot {
				retained += f.Size
			}
			if db.tracker != nil && db.tracker.Protected(f.Number) {
				shadow++
			}
		}
		totalFiles += len(files)
		totalBytes += bytes
		fmt.Fprintf(&b, "%5d  %5d  %9d  %6d  %8d\n", level, len(files), bytes, shadow, retained)
	}
	fmt.Fprintf(&b, "total  %5d  %9d\n", totalFiles, totalBytes)
	fmt.Fprintf(&b, "\nmemtable bytes        %d\n", memBytes)
	fmt.Fprintf(&b, "user bytes written    %d\n", db.m.userBytes.Value())
	// Write amplification: bytes the storage stack wrote (flush +
	// compaction rewrites) per byte of user data. Read amplification
	// here is the compaction read volume over the same base — the
	// steady-state merge cost, not point-lookup fan-out.
	bytesRead, bytesWritten := db.m.bytesRead.Value(), db.m.bytesWritten.Value()
	if ub := db.m.userBytes.Value(); ub > 0 {
		fmt.Fprintf(&b, "write amplification   %.2f\n", float64(bytesWritten)/float64(ub))
		fmt.Fprintf(&b, "read amplification    %.2f\n", float64(bytesRead)/float64(ub))
	}
	seek := db.m.seek.Value()
	fmt.Fprintf(&b, "compactions           minor=%d major=%d trivial=%d seek=%d\n",
		db.m.minor.Value(), db.m.major.Value(), db.m.trivial.Value(), seek)
	fmt.Fprintf(&b, "read-triggered compactions: %d run, %d deferred behind write work\n",
		seek, db.m.seekDeferred.Value())
	fmt.Fprintf(&b, "compaction bytes      read=%d written=%d\n", bytesRead, bytesWritten)
	var stalls int64
	var stallTime vclock.Duration
	for c := obs.StallCause(0); int(c) < obs.NumStallCauses; c++ {
		stalls += db.stalls.Count(c)
		stallTime += db.stalls.TotalNs(c)
	}
	fmt.Fprintf(&b, "stalls                %d (%v; by cause in the doctor's stall ledger)\n", stalls, stallTime)
	if db.tracker != nil {
		c := db.reg.Counters()
		fmt.Fprintf(&b, "shadow tables         deps=%d protected=%d preds_deleted=%d\n",
			c["tracker.registered"]-c["tracker.resolved"], len(db.tracker.Inventory().Protected),
			c["tracker.preds_deleted"])
	}
	return b.String()
}

// propertyBackgroundErrors renders the background-error state machine
// (bgerror.go) and the self-healing counters (heal.go).
func (db *DB) propertyBackgroundErrors() string {
	db.mu.Lock()
	permanent := db.bgPermanent
	poisoned := db.walPoisoned
	db.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "read-only             %v\n", db.readOnly.Load())
	if permanent != nil {
		fmt.Fprintf(&b, "permanent error       %v\n", permanent)
	} else {
		fmt.Fprintf(&b, "permanent error       (none)\n")
	}
	fmt.Fprintf(&b, "wal poisoned          %v (rotations %d)\n",
		poisoned, db.m.walPoisonRotations.Value())
	fmt.Fprintf(&b, "bg errors             transient=%d retries=%d permanent=%d\n",
		db.m.bgTransientErrors.Value(), db.m.bgRetries.Value(), db.m.bgPermanentErrors.Value())
	fmt.Fprintf(&b, "read retries          %d\n", db.m.readRetries.Value())
	fmt.Fprintf(&b, "self-healing          healed=%d quarantined=%d\n",
		db.m.readsHealed.Value(), db.m.tablesQuarantined.Value())
	return b.String()
}

// propertySSTables renders every live table with its key range.
func (db *DB) propertySSTables() string {
	db.mu.Lock()
	current := db.current
	db.mu.Unlock()

	var b strings.Builder
	for level := 0; level < version.NumLevels; level++ {
		files := current.Files[level]
		if len(files) == 0 {
			continue
		}
		// The build policy newly cut tables at this level get; existing
		// tables keep whatever they were built with (reads are
		// per-block tag-driven, filters self-describing).
		fmt.Fprintf(&b, "--- level %d (bloom %d bits/key, codec %s) ---\n",
			level, db.opts.bloomBitsForLevel(level), db.opts.compressionForLevel(level))
		for _, f := range files {
			flags := ""
			if f.Hot {
				flags = " hot"
			}
			if db.tracker != nil && db.tracker.Protected(f.Number) {
				flags += " shadow-protected"
			}
			fmt.Fprintf(&b, "%6d: %8d bytes  [%q .. %q]%s\n",
				f.Number, f.Size, f.SmallestUser(), f.LargestUser(), flags)
		}
	}
	if b.Len() == 0 {
		return "(no sstables)\n"
	}
	return b.String()
}

// propertyTracker renders the NobLSM tracker inventory: unresolved
// p→q dependencies and the shadow tables they protect.
func (db *DB) propertyTracker() string {
	if db.tracker == nil {
		return "(no tracker: sync mode is not NobLSM)\n"
	}
	c := db.reg.Counters()
	inv := db.tracker.Inventory()
	var b strings.Builder
	fmt.Fprintf(&b, "deps registered       %d\n", c["tracker.registered"])
	fmt.Fprintf(&b, "deps resolved         %d\n", c["tracker.resolved"])
	fmt.Fprintf(&b, "preds safely deleted  %d\n", c["tracker.preds_deleted"])
	fmt.Fprintf(&b, "polls                 %d (syscall checks %d)\n", c["tracker.polls"], c["tracker.syscall_checks"])
	fmt.Fprintf(&b, "pending deps          %d\n", len(inv.Deps))
	for _, d := range inv.Deps {
		fmt.Fprintf(&b, "  preds %v waiting on %d succ inode(s)\n", d.Preds, d.WaitingSuccs)
	}
	fmt.Fprintf(&b, "protected shadows     %d %v\n", len(inv.Protected), inv.Protected)
	return b.String()
}
