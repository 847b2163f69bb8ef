// Command lsminspect builds a store with a chosen variant, runs a
// fill, and dumps the resulting LSM-tree structure: level populations,
// file ranges, tracker state, and the filesystem's journal counters.
// It exists to make the simulation's internals inspectable — the level
// shapes, shadow retention, and sync accounting one would otherwise
// only see through aggregate benchmark numbers.
//
// Usage:
//
//	lsminspect -variant NobLSM -ops 30000
//	lsminspect -variant NobLSM -ops 30000 -props   # dump all DB properties
//	lsminspect -manifest                           # dump the manifest record stream
//	lsminspect -repair -corrupt manifest-flip      # damage the store, repair, reopen
//	lsminspect -backup                             # full, then incremental backup
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/harness"
	"noblsm/internal/keys"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/wal"
)

var (
	variantFlag = flag.String("variant", "NobLSM", "system to build (LevelDB, Volatile, NobLSM, BoLT, L2SM, HyperLevelDB, RocksDB, PebblesDB)")
	ops         = flag.Int64("ops", 30_000, "fillrandom operations")
	valueSize   = flag.Int("value", 1024, "value size in bytes")
	seed        = flag.Int64("seed", 42, "workload seed")
	propsFlag   = flag.Bool("props", false, "dump every DB property (noblsm.stats, noblsm.sstables, noblsm.tracker, noblsm.metrics) after the fill")
	maniFlag    = flag.Bool("manifest", false, "dump the MANIFEST record stream (offset, CRC status, decoded edit) and the tracker dependency table")
	repairFlag  = flag.Bool("repair", false, "close the store, apply -corrupt, run engine.Repair, and reopen")
	corruptFlag = flag.String("corrupt", "none", "damage to inject before -repair: none, manifest-delete, manifest-flip")
	backupFlag  = flag.Bool("backup", false, "take a backup into a fresh directory, keep writing so compactions supersede backed-up tables, take an incremental backup into the same directory, and print the doctor's backup section")
)

func main() {
	flag.Parse()
	if *ops < 1 || *valueSize < 1 {
		fmt.Fprintln(os.Stderr, "-ops and -value must be positive")
		os.Exit(2)
	}
	v := policy.Variant(*variantFlag)
	tl := vclock.NewTimeline(0)
	st, err := harness.NewStore(tl, v, harness.ScaledOptions(*ops, *valueSize, harness.PaperTable64MB))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := harness.RunDBBench(st, tl.Now(), dbbench.FillRandom, *ops, *valueSize, 1, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s after fillrandom(%d × %dB): %.2f µs/op over %v virtual\n\n",
		v, *ops, *valueSize, res.MicrosPerOp, res.Elapsed)

	if *maniFlag {
		if err := dumpManifest(st, tl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *repairFlag {
		if err := runRepair(st, tl, *corruptFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *backupFlag {
		if err := runBackup(st, tl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *propsFlag {
		for _, name := range engine.PropertyNames {
			val, ok := st.DB.Property(name)
			if !ok {
				continue
			}
			fmt.Printf("=== %s ===\n%s\n", name, val)
		}
		return
	}

	// Per-level table: files, bytes, key range, and how many tables
	// the NobLSM tracker is shadow-protecting at each level.
	tracker := st.DB.Tracker()
	fmt.Println("LSM-tree structure:")
	fmt.Printf("  %-4s %6s %10s %7s %7s  %s\n", "Lvl", "Files", "Bytes", "Shadow", "Hot", "Key range")
	cur := st.DB.Version()
	for level := 0; level < version.NumLevels; level++ {
		files := cur.Files[level]
		if len(files) == 0 {
			continue
		}
		shadow, hotN := 0, 0
		var lo, hi []byte
		for _, f := range files {
			if f.Hot {
				hotN++
			}
			if tracker != nil && tracker.Protected(f.Number) {
				shadow++
			}
			if lo == nil || keys.CompareUser(f.SmallestUser(), lo) < 0 {
				lo = f.SmallestUser()
			}
			if hi == nil || keys.CompareUser(f.LargestUser(), hi) > 0 {
				hi = f.LargestUser()
			}
		}
		fmt.Printf("  L%-3d %6d %10d %7d %7d  %s .. %s\n", level, len(files),
			cur.TotalSize(level), shadow, hotN, trunc(lo), trunc(hi))
		max := 4
		for i, f := range files {
			if i == max {
				fmt.Printf("      ... %d more\n", len(files)-max)
				break
			}
			hot := ""
			if f.Hot {
				hot = " [hot]"
			}
			if tracker != nil && tracker.Protected(f.Number) {
				hot += " [shadow-protected]"
			}
			fmt.Printf("      #%-5d %7.2f KB  %s .. %s%s\n", f.Number,
				float64(f.Size)/1024,
				trunc(keys.UserKey(f.Smallest)), trunc(keys.UserKey(f.Largest)), hot)
		}
	}

	c := st.Metrics.Counters()
	mb := func(name string) float64 { return float64(c[name]) / (1 << 20) }
	fmt.Printf("\nengine: %d puts, %d minor / %d major compactions (+%d moves), %d seek-triggered\n",
		c["engine.puts"], c["engine.compactions.minor"], c["engine.compactions.major"],
		c["engine.compactions.trivial_moves"], c["engine.compactions.seek"])
	fmt.Printf("        compaction I/O: %.1f MB read, %.1f MB written (write amp %.1fx)\n",
		mb("compaction.bytes_read"), mb("compaction.bytes_written"),
		float64(c["compaction.bytes_written"])/float64(*ops*int64(*valueSize)))
	fmt.Printf("        stalls:")
	for cause := obs.StallCause(0); int(cause) < obs.NumStallCauses; cause++ {
		if n := c[cause.Metric("count")]; n > 0 {
			fmt.Printf(" %s %d (%v)", cause, n, vclock.Duration(c[cause.Metric("ns")]))
		}
	}
	fmt.Println()

	fmt.Printf("ext4:   %d fsyncs (%.1f MB synced), %d async commits (%.1f MB), flusher %.1f MB\n",
		c["ext4.syncs"], mb("ext4.bytes_synced"), c["ext4.async_commits"],
		mb("ext4.bytes_async_committed"), mb("ext4.bytes_flushed"))

	if tr := st.DB.Tracker(); tr != nil {
		inv := tr.Inventory()
		fmt.Printf("tracker: %d deps registered, %d resolved, %d predecessors reclaimed, %d polls\n",
			c["tracker.registered"], c["tracker.resolved"], c["tracker.preds_deleted"], c["tracker.polls"])
		fmt.Printf("         %d shadow tables currently retained, %d deps pending\n",
			len(inv.Protected), len(inv.Deps))
	}
	fmt.Printf("latency: p50=%v p99=%v p99.9=%v max=%v\n",
		res.Latency.Percentile(50), res.Latency.Percentile(99),
		res.Latency.Percentile(99.9), res.Latency.Max())
}

// runBackup takes a backup of the filled store into a fresh
// directory, keeps writing so compactions supersede backed-up tables
// (the backup's links keep their bytes once the primary unlinks them),
// takes an incremental backup into the same directory, and prints the
// doctor's backup section — the same view an operator gets from a live
// store.
func runBackup(st *harness.Store, tl *vclock.Timeline) error {
	show := func(label string, bk *engine.BackupInfo) {
		fmt.Printf("%s: %d files linked, %d reused, %d pruned, %d bytes copied at wal=%06d off=%d seq=%d\n",
			label, bk.TablesLinked, bk.TablesReused, bk.Pruned, bk.CopiedBytes,
			bk.WALNumber, bk.WALOff, bk.LastSeq)
	}
	full, err := st.DB.Backup(tl, "inspect-backup")
	if err != nil {
		return fmt.Errorf("full backup: %w", err)
	}
	show("full backup", full)

	// A second fill round overwrites the same keyspace, driving
	// compactions over the backed-up tables.
	if _, err := harness.RunDBBench(st, tl.Now(), dbbench.FillRandom, *ops, *valueSize, 1, *seed+1); err != nil {
		return fmt.Errorf("second fill: %w", err)
	}
	incr, err := st.DB.Backup(tl, "inspect-backup")
	if err != nil {
		return fmt.Errorf("incremental backup: %w", err)
	}
	show("incremental backup", incr)

	doctor, _ := st.DB.Property("noblsm.doctor")
	section := doctor[strings.Index(doctor, "-- backup --"):]
	fmt.Printf("\n%s", section[:strings.Index(section, "\n\n")+1])
	return nil
}

// dumpManifest renders the live MANIFEST's physical record stream —
// every entry with its offset, CRC status, and decoded version edit —
// followed by the tracker's dependency table. This is the forensic
// view Repair bases its decisions on.
func dumpManifest(st *harness.Store, tl *vclock.Timeline) error {
	cur, err := st.FS.ReadFile(tl, engine.CurrentName)
	if err != nil {
		return fmt.Errorf("reading CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	data, err := st.FS.ReadFile(tl, name)
	if err != nil {
		return fmt.Errorf("reading %s: %w", name, err)
	}
	recs := wal.ScanRecords(data)
	fmt.Printf("%s: %d bytes, %d record-stream entries\n\n", name, len(data), len(recs))
	fmt.Printf("  %-8s %-8s %-7s  %s\n", "Offset", "Len", "CRC", "Edit")
	for _, r := range recs {
		if !r.Valid {
			fmt.Printf("  %-8d %-8d %-7s  (skipped damaged region)\n", r.Off, r.Len, "BAD")
			continue
		}
		edit, derr := version.DecodeEdit(r.Payload)
		if derr != nil {
			fmt.Printf("  %-8d %-8d %-7s  undecodable: %v\n", r.Off, r.Len, "ok", derr)
			continue
		}
		fmt.Printf("  %-8d %-8d %-7s  %s\n", r.Off, r.Len, "ok", editSummary(edit))
	}

	if tr := st.DB.Tracker(); tr != nil {
		inv := tr.Inventory()
		fmt.Printf("\ntracker dependency table: %d unresolved deps, %d shadow-retained predecessors\n",
			len(inv.Deps), len(inv.Protected))
		for i, d := range inv.Deps {
			fmt.Printf("  dep %-3d preds %v -> succs %v (%d inode commits outstanding)\n",
				i, d.Preds, d.Succs, d.WaitingSuccs)
		}
		if len(inv.Protected) > 0 {
			fmt.Printf("  protected: %v\n", inv.Protected)
		}
	}
	return nil
}

// editSummary compresses a version edit to one line.
func editSummary(e *version.VersionEdit) string {
	var parts []string
	if e.HasLogNumber {
		parts = append(parts, fmt.Sprintf("log=%d", e.LogNumber))
	}
	if e.HasNextFileNumber {
		parts = append(parts, fmt.Sprintf("next=%d", e.NextFileNumber))
	}
	if e.HasLastSeq {
		parts = append(parts, fmt.Sprintf("seq=%d", e.LastSeq))
	}
	for _, nf := range e.NewFiles {
		parts = append(parts, fmt.Sprintf("+L%d#%d(%dB)", nf.Level, nf.Meta.Number, nf.Meta.Size))
	}
	for _, df := range e.DeletedFiles {
		parts = append(parts, fmt.Sprintf("-L%d#%d", df.Level, df.Number))
	}
	if len(e.CompactPointers) > 0 {
		parts = append(parts, fmt.Sprintf("ptrs=%d", len(e.CompactPointers)))
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// runRepair closes the filled store, injects the requested damage,
// runs the offline Repair, prints its report, and reopens the store
// to prove it serves.
func runRepair(st *harness.Store, tl *vclock.Timeline, corrupt string) error {
	if err := st.DB.Close(tl); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	fs := st.FS
	switch corrupt {
	case "none":
	case "manifest-delete":
		for _, name := range fs.List(tl) {
			if kind, _, ok := engine.ParseFileName(name); ok &&
				(kind == engine.KindCurrent || kind == engine.KindManifest) {
				if err := fs.Remove(tl, name); err != nil {
					return err
				}
				fmt.Printf("injected: removed %s\n", name)
			}
		}
	case "manifest-flip":
		cur, err := fs.ReadFile(tl, engine.CurrentName)
		if err != nil {
			return err
		}
		name := strings.TrimSpace(string(cur))
		data, err := fs.ReadFile(tl, name)
		if err != nil {
			return err
		}
		recs := wal.ScanRecords(data)
		if len(recs) < 2 {
			return fmt.Errorf("%s has %d records; need at least 2 to corrupt the interior", name, len(recs))
		}
		// Record 1, payload byte 0 (offset +7 skips the CRC/len/type
		// header): interior damage when later records stay valid.
		off := int64(recs[1].Off) + 7
		if err := fs.CorruptAt(name, off); err != nil {
			return err
		}
		fmt.Printf("injected: flipped a bit at %s offset %d (record 1 payload)\n", name, off)
	default:
		return fmt.Errorf("unknown -corrupt mode %q", corrupt)
	}

	rep, err := engine.Repair(tl, fs, st.Opts)
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	fmt.Printf("\nrepair report:\n")
	fmt.Printf("  manifest:    %s (%d edits decoded)\n", rep.ManifestState, rep.EditsDecoded)
	fmt.Printf("  tables:      %d scanned, %d kept, %d superseded, %d condemned, %d quarantined\n",
		rep.TablesScanned, len(rep.Kept), len(rep.Superseded), len(rep.Condemned), len(rep.Quarantined))
	if len(rep.Quarantined) > 0 {
		fmt.Printf("  quarantined: %v (renamed *.corrupt)\n", rep.Quarantined)
	}
	if len(rep.Condemned) > 0 {
		fmt.Printf("  condemned:   %v (shadow predecessors serve instead)\n", rep.Condemned)
	}
	fmt.Printf("  logs:        %v retained for replay\n", rep.LogsRetained)
	fmt.Printf("  rebuilt:     MANIFEST-%06d, next file %d, last seq %d\n",
		rep.ManifestNumber, rep.NextFile, rep.LastSeq)

	db, err := engine.Open(tl, fs, st.Opts)
	if err != nil {
		return fmt.Errorf("reopen after repair: %w", err)
	}
	defer db.Close(tl)
	it, err := db.NewIterator(tl)
	if err != nil {
		return err
	}
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("scan after repair: %w", err)
	}
	fmt.Printf("\nreopened: %d keys served after repair\n", n)
	return nil
}

func trunc(b []byte) string {
	s := string(b)
	if len(s) > 16 {
		return s[:16] + "…"
	}
	return s
}
