package engine

import (
	"fmt"
	"sort"
	"strings"

	"noblsm/internal/cache"
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
//	                 stall totals
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
//	noblsm.checkpoints
//	                 live checkpoint references: the pinned manifest
//	                 cut, retained files, bytes held back from GC, and
//	                 the last incremental backup
//
//	noblsm.doctor    a one-page health report: level shape, bg-error
//	                 state, device writes by origin (writeback, fsync,
//	                 journal), the page cache's host memory, stall
//	                 ledger, top latency phases and the most recent
//	                 time-series windows
//
// lsminspect -props dumps all of them; tests assert on their shape.

// PropertyNames lists every supported property in display order.
var PropertyNames = []string{
	"noblsm.stats",
	"noblsm.sstables",
	"noblsm.tracker",
	"noblsm.background-errors",
	"noblsm.checkpoints",
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
	case "noblsm.checkpoints":
		return db.propertyCheckpoints(), true
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
	fmt.Fprintf(&b, "-- background errors --\n%s\n", db.propertyBackgroundErrors())
	fmt.Fprintf(&b, "-- block caches --\n%s\n", db.cacheReport())
	fmt.Fprintf(&b, "-- device writes --\n%s\n", db.deviceWriteReport())
	fmt.Fprintf(&b, "-- page cache --\n%s\n", db.pageCacheLine())
	fmt.Fprintf(&b, "-- checkpoints & backup --\n%s\n", db.propertyCheckpoints())
	fmt.Fprintf(&b, "-- admission governor --\n%s\n", db.governor.String())
	if db.tel == nil {
		fmt.Fprintf(&b, "-- telemetry --\n")
		fmt.Fprintf(&b, "(disabled: Options.Telemetry is nil — per-op attribution,\n")
		fmt.Fprintf(&b, " the stall ledger and windowed percentiles are unavailable)\n")
	} else {
		fmt.Fprintf(&b, "-- stall ledger --\n%s\n", db.tel.Stalls.String())
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

// pageCacheLine renders the doctor's host-memory line. The simulated
// page cache holds every file's bytes in this process, in whole
// extents, beside a free list of extents whose files are gone; the
// gap between the first two numbers is the extents' unused tails.
func (db *DB) pageCacheLine() string {
	g := db.reg.Snapshot().Gauges
	held, ok := g["ext4.page_cache_bytes"]
	if !ok {
		return "(the filesystem does not publish into this registry)\n"
	}
	mb := func(n int64) float64 { return float64(n) / (1 << 20) }
	return fmt.Sprintf("page cache: %.1f MB held for %.1f MB of files, %.1f MB free\n",
		mb(held), mb(g["ext4.file_bytes"]), mb(g["ext4.page_cache_free_bytes"]))
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
	// A point read decodes a compressed block only as far as its entry.
	if decoded, declared := db.m.getDecodedBytes.Value(), db.m.getDeclaredBytes.Value(); declared > 0 {
		fmt.Fprintf(&b, "point reads decoded %.1f %% of the blocks they missed (%d of %d bytes)\n",
			100*float64(decoded)/float64(declared), decoded, declared)
	}
	return b.String()
}

// propertyCheckpoints renders the live checkpoint references — the
// state an operator needs to see why GC is holding files back — plus
// the last incremental backup.
func (db *DB) propertyCheckpoints() string {
	refs := db.Checkpoints()

	// Pinned tables no longer in the live version are retained solely
	// for their checkpoints; tracker-protected pins are additionally
	// shadow predecessors a compaction has already superseded.
	db.mu.Lock()
	current := db.current
	db.mu.Unlock()
	live := make(map[uint64]bool)
	for level := 0; level < version.NumLevels; level++ {
		for _, f := range current.Files[level] {
			live[f.Number] = true
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "live references       %d\n", len(refs))
	fmt.Fprintf(&b, "created / released    %d / %d\n",
		db.m.ckptCreated.Value(), db.m.ckptReleased.Value())
	fmt.Fprintf(&b, "pinned files          %d (%d bytes retained)\n",
		db.m.ckptPinnedFiles.Value(), db.m.ckptRetainedBytes.Value())
	for _, ref := range refs {
		fmt.Fprintf(&b, "\nref %d: %s/ (created %v)\n", ref.ID, ref.Dir, ref.CreatedAt)
		fmt.Fprintf(&b, "  manifest cut        wal=%06d off=%d seq=%d\n",
			ref.WALNumber, ref.WALOff, ref.LastSeq)
		fmt.Fprintf(&b, "  export              %d files, %d linked, %d bytes copied\n",
			len(ref.Files), ref.Linked, ref.CopiedBytes)
		var gcHeld, shadows []uint64
		for _, num := range ref.Tables {
			if db.tracker != nil && db.tracker.Protected(num) {
				shadows = append(shadows, num)
			} else if !live[num] {
				gcHeld = append(gcHeld, num)
			}
		}
		fmt.Fprintf(&b, "  pins                %d tables, %d logs\n", len(ref.Tables), len(ref.Logs))
		if len(gcHeld) > 0 {
			fmt.Fprintf(&b, "  held back from GC   %v\n", gcHeld)
		}
		if len(shadows) > 0 {
			fmt.Fprintf(&b, "  shadow predecessors %v\n", shadows)
		}
	}
	if bk := db.LastBackup(); bk != nil {
		fmt.Fprintf(&b, "\nlast backup           %s/ at %v (seq %d)\n", bk.Dir, bk.At, bk.LastSeq)
		fmt.Fprintf(&b, "  incremental         %d linked, %d reused, %d pruned, %d bytes copied\n",
			bk.TablesLinked, bk.TablesReused, bk.Pruned, bk.CopiedBytes)
	} else {
		fmt.Fprintf(&b, "\nlast backup           (none)\n")
	}
	return b.String()
}

// propertyStats renders the per-level table and headline counters.
func (db *DB) propertyStats() string {
	db.mu.Lock()
	current := db.current
	memBytes := db.mem.ApproximateMemoryUsage()
	db.mu.Unlock()

	s := db.Stats()
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
	if ub := db.m.userBytes.Value(); ub > 0 {
		wa := float64(s.CompactionBytesWritten) / float64(ub)
		ra := float64(s.CompactionBytesRead) / float64(ub)
		fmt.Fprintf(&b, "write amplification   %.2f\n", wa)
		fmt.Fprintf(&b, "read amplification    %.2f\n", ra)
	}
	fmt.Fprintf(&b, "compactions           minor=%d major=%d trivial=%d seek=%d\n",
		s.MinorCompactions, s.MajorCompactions, s.TrivialMoves, s.SeekCompactions)
	fmt.Fprintf(&b, "read-triggered compactions: %d run, %d deferred behind write work\n",
		s.SeekCompactions, s.SeekCompactionsDeferred)
	fmt.Fprintf(&b, "compaction bytes      read=%d written=%d\n",
		s.CompactionBytesRead, s.CompactionBytesWritten)
	fmt.Fprintf(&b, "stalls                slowdown=%d (%v) rotation=%v\n",
		s.SlowdownStalls, s.SlowdownTime, s.RotationStall)
	if db.tracker != nil {
		ts := db.tracker.Stats()
		fmt.Fprintf(&b, "shadow tables         deps=%d protected=%d preds_deleted=%d\n",
			ts.Registered-ts.Resolved, len(db.tracker.Inventory().Protected), ts.PredsDeleted)
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
	plans := 0
	if db.tracker != nil {
		// Every unresolved dependency carries its rollback plan.
		plans = db.tracker.PendingDeps()
	}

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
	fmt.Fprintf(&b, "self-healing          healed=%d quarantined=%d plans=%d\n",
		db.m.readsHealed.Value(), db.m.tablesQuarantined.Value(), plans)
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
	ts := db.tracker.Stats()
	inv := db.tracker.Inventory()
	var b strings.Builder
	fmt.Fprintf(&b, "deps registered       %d\n", ts.Registered)
	fmt.Fprintf(&b, "deps resolved         %d\n", ts.Resolved)
	fmt.Fprintf(&b, "preds safely deleted  %d\n", ts.PredsDeleted)
	fmt.Fprintf(&b, "polls                 %d (syscall checks %d)\n", ts.Polls, ts.SyscallChecks)
	fmt.Fprintf(&b, "pending deps          %d\n", len(inv.Deps))
	for _, d := range inv.Deps {
		fmt.Fprintf(&b, "  preds %v waiting on %d succ inode(s)\n", d.Preds, d.WaitingSuccs)
	}
	fmt.Fprintf(&b, "protected shadows     %d %v\n", len(inv.Protected), inv.Protected)
	return b.String()
}
