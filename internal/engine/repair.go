// repair.go rebuilds a consistent store from whatever survives on
// disk when the MANIFEST is missing, truncated, or corrupt. Which of
// the recorded installs happened is the recovery planner's decision
// (recoveryplan.go), made on fully scanned tables.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"noblsm/internal/keys"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
	"noblsm/internal/wal"
)

// ErrNeedsRepair reports store damage that in-place recovery cannot
// absorb: a missing or unusable CURRENT/MANIFEST chain, or corruption
// in the manifest's interior. Open handles it by running Repair and
// recovering again; the error surfaces only if that fails too.
var ErrNeedsRepair = errors.New("engine: store needs repair")

// A manifest image's damage, as RepairReport.ManifestState names it. A
// torn tail, the shape of an unsynced append a crash interrupted,
// leaves the decoded prefix as the durable history. Interior damage,
// with valid records after it, is sound neither to truncate at
// (committed history would go) nor to decode past (edits would apply
// over a hole): only Repair handles it.
const (
	manifestClean    = "clean"
	manifestTornTail = "torn-tail"
	manifestInterior = "interior"
)

// classifyManifest decodes every intact record of a manifest image in
// one pass and classifies its damage, telling the torn tail a crash
// legitimately leaves from interior corruption. Unless the damage is
// interior, no edit follows it, so edits is the durable history.
func classifyManifest(data []byte) (edits []*version.VersionEdit, state string) {
	r := wal.NewReader(data)
	damaged, interior := false, false
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		// A record that follows damage makes the damage interior.
		damaged = damaged || r.DroppedRecords > 0
		interior = interior || damaged
		if edit, err := version.DecodeEdit(rec); err == nil {
			edits = append(edits, edit)
		} else {
			damaged = true
		}
	}
	switch {
	case interior:
		return edits, manifestInterior
	case damaged || r.Dropped > 0 || r.DroppedRecords > 0:
		return edits, manifestTornTail
	}
	return edits, manifestClean
}

// RepairReport describes what Repair found and decided.
type RepairReport struct {
	// ManifestState is the damage taxonomy of the manifest Repair
	// read: "clean", "torn-tail", "interior", "missing" (no manifest
	// file at all) or "unreadable". EditsDecoded counts the manifest
	// records whose edits informed the dependency decisions.
	ManifestState string
	EditsDecoded  int

	// TablesScanned tables were fully iterated (every block CRC
	// checked). Kept survive into the rebuilt version; Quarantined
	// failed validation and were renamed out of the engine namespace
	// (<table>.corrupt). Superseded are inputs of an install whose
	// outputs survive; Condemned are outputs of an install the planner
	// undid, its inputs serving in their place. An install whose
	// inputs are gone keeps its intact outputs. A damaged output can
	// appear in both Quarantined and Condemned.
	TablesScanned int
	Kept          []uint64
	Quarantined   []uint64
	Superseded    []uint64
	Condemned     []uint64

	// LogsRetained are the WALs left for the subsequent Open to
	// replay (all of them: the rebuilt manifest sets log number 0).
	LogsRetained []uint64

	// ManifestNumber is the rebuilt manifest's file number; NextFile
	// and LastSeq are the counters it records.
	ManifestNumber uint64
	NextFile       uint64
	LastSeq        uint64
}

// Repair rebuilds a consistent MANIFEST/CURRENT pair from the files
// on disk. Every table is fully validated (corrupt ones are
// quarantined as .corrupt), the recovery planner decides from the
// decodable manifest edits which installs survive, and the surviving
// tables are installed at level 0 of a fresh snapshot manifest. All
// on-disk WALs stay for the next Open to replay (the snapshot records
// log number 0); replay is idempotent against flushed data because
// batches carry their original sequence numbers.
//
// Repair is offline: it must not run concurrently with an open DB on
// the same filesystem.
func Repair(tl *vclock.Timeline, fs vfs.FS, opts Options) (*RepairReport, error) {
	opts = opts.sanitize()
	rep := &RepairReport{ManifestState: "missing"}

	var tables, logs, manifests []uint64
	maxNum := uint64(1)
	for _, name := range fs.List(tl) {
		kind, num, ok := ParseFileName(name)
		if !ok {
			continue
		}
		if num > maxNum {
			maxNum = num
		}
		switch kind {
		case KindTable:
			tables = append(tables, num)
		case KindLog:
			logs = append(logs, num)
		case KindManifest:
			manifests = append(manifests, num)
		}
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i] < tables[j] })
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	rep.LogsRetained = logs

	// Best-effort manifest read: prefer the one CURRENT names, fall
	// back to the highest-numbered manifest present. Unlike recovery,
	// repair plans from every intact record, even past interior
	// damage: more history only refines the decisions.
	manifestName := ""
	if data, err := fs.ReadFile(tl, CurrentName); err == nil {
		name := strings.TrimSpace(string(data))
		if kind, _, ok := ParseFileName(name); ok && kind == KindManifest && fs.Exists(tl, name) {
			manifestName = name
		}
	}
	if manifestName == "" && len(manifests) > 0 {
		manifestName = ManifestName(manifests[len(manifests)-1])
	}
	var edits []*version.VersionEdit
	if manifestName != "" {
		data, err := fs.ReadFile(tl, manifestName)
		if err != nil {
			rep.ManifestState = "unreadable"
		} else {
			edits, rep.ManifestState = classifyManifest(data)
		}
	}
	rep.EditsDecoded = len(edits)

	// Validate every table end to end: open it, iterate every entry
	// (each block read checks its CRC), and record its key range,
	// highest sequence number, and inode. Damage quarantines the file
	// outside the engine namespace, like the online heal path.
	topts := sstable.Options{BlockSize: opts.BlockSize, RestartInterval: 16,
		BloomBitsPerKey: opts.BloomBitsPerKey}
	valid := make(map[uint64]*version.FileMeta, len(tables))
	var lastSeq keys.SeqNum
	for _, num := range tables {
		rep.TablesScanned++
		meta, maxSeq, err := scanTable(tl, fs, topts, num)
		if err != nil {
			rep.Quarantined = append(rep.Quarantined, num)
			if rerr := fs.Rename(tl, TableName(num), TableName(num)+".corrupt"); rerr != nil {
				return nil, fmt.Errorf("engine: repair: quarantining %06d: %w", num, rerr)
			}
			continue
		}
		if meta == nil {
			continue // empty table: nothing to reference
		}
		valid[num] = meta
		if maxSeq > lastSeq {
			lastSeq = maxSeq
		}
	}

	// What the planner condemns or supersedes is left out; every other
	// intact table, orphans included, is kept.
	plan := planRecovery(edits, func(num uint64) bool { return valid[num] != nil })
	snap := &version.VersionEdit{}
	// Log number 0: the next Open replays every WAL on disk. Replay
	// over already-flushed data is harmless (original sequence
	// numbers resolve staleness); skipping a log that was gated on a
	// lost manifest edit would not be.
	snap.SetLogNumber(0)
	rep.ManifestNumber = maxNum + 1
	rep.NextFile = maxNum + 2
	snap.SetNextFileNumber(rep.NextFile)
	snap.SetLastSeq(lastSeq)
	rep.LastSeq = uint64(lastSeq)
	for _, num := range tables {
		meta := valid[num]
		if plan.condemned[num] {
			rep.Condemned = append(rep.Condemned, num)
		}
		switch {
		case meta == nil || plan.condemned[num]:
			// quarantined, empty or condemned; already reported
		case plan.superseded[num]:
			rep.Superseded = append(rep.Superseded, num)
		default:
			rep.Kept = append(rep.Kept, num)
			// Level 0: overlap is legal there and per-key sequence
			// numbers pick the newest version, so a flat rebuild is
			// read-correct regardless of what levels the files
			// occupied before; the first compactions re-form the
			// pyramid.
			snap.AddFile(0, meta)
		}
	}

	mf, err := fs.Create(tl, ManifestName(rep.ManifestNumber))
	if err != nil {
		return nil, err
	}
	w := wal.NewWriter(mf)
	if err := w.AddRecord(tl, snap.Encode()); err != nil {
		mf.Close(tl)
		return nil, err
	}
	if err := mf.Sync(tl); err != nil {
		mf.Close(tl)
		return nil, err
	}
	mf.Close(tl)
	if err := fs.WriteFile(tl, CurrentName, []byte(ManifestName(rep.ManifestNumber)+"\n")); err != nil {
		return nil, err
	}
	if err := fs.SyncDir(tl); err != nil {
		return nil, err
	}
	// Retire older manifests out of the engine namespace but keep the
	// bytes for forensics — interior corruption is evidence of a bug
	// or failing media, not something to delete.
	for _, num := range manifests {
		if num != rep.ManifestNumber {
			fs.Rename(tl, ManifestName(num), ManifestName(num)+".pre-repair")
		}
	}
	return rep, nil
}

// scanTable fully validates one table and extracts the metadata the
// rebuilt version needs. A nil meta with nil error means the table is
// empty. The returned maxSeq is the highest sequence number of any
// entry, which bounds the store's LastSeq from below.
func scanTable(tl *vclock.Timeline, fs vfs.FS, topts sstable.Options, num uint64) (*version.FileMeta, keys.SeqNum, error) {
	f, err := fs.Open(tl, TableName(num))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close(tl)
	r, err := sstable.Open(tl, f, topts, num, nil)
	if err != nil {
		return nil, 0, err
	}
	it := r.NewIterator(tl)
	var smallest, largest []byte
	var maxSeq keys.SeqNum
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if n == 0 {
			smallest = append(smallest, it.Key()...)
		}
		largest = append(largest[:0], it.Key()...)
		if _, seq, _, ok := keys.ParseInternalKey(it.Key()); ok {
			if seq > maxSeq {
				maxSeq = seq
			}
		} else {
			return nil, 0, fmt.Errorf("%w: unparseable internal key", sstable.ErrCorrupt)
		}
		n++
	}
	if err := it.Err(); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, nil
	}
	return &version.FileMeta{
		Number:   num,
		Size:     f.Size(),
		Smallest: smallest,
		Largest:  largest,
		Ino:      f.Ino(),
	}, maxSeq, nil
}
