// repair.go rebuilds a consistent store from whatever survives on
// disk when the MANIFEST is missing, truncated, or corrupt. It is the
// offline twin of the tracker's online decision: for every
// predecessor→successor compaction dependency recorded in the
// decodable manifest edits, prefer the successors when the complete
// set is intact on disk, and fall back to the retained shadow
// predecessors otherwise — exactly the choice NobLSM's non-blocking
// design keeps open by not deleting predecessors until their
// successors commit (paper §4.3).
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

// manifestState classifies the damage of a manifest image.
type manifestState int

const (
	manifestClean manifestState = iota
	// manifestTornTail: the image ends in a damaged or undecodable
	// record with nothing valid after it — the expected shape of an
	// unsynced append interrupted by a crash. The decoded prefix is
	// the whole durable history; in-place recovery keeps it.
	manifestTornTail
	// manifestInterior: damage followed by further valid records.
	// Truncating at the damage would drop committed history, and
	// decoding past it would apply edits with a hole before them, so
	// neither in-place strategy is sound — only Repair is.
	manifestInterior
)

func (s manifestState) String() string {
	switch s {
	case manifestClean:
		return "clean"
	case manifestTornTail:
		return "torn-tail"
	case manifestInterior:
		return "interior"
	}
	return fmt.Sprintf("manifestState(%d)", int(s))
}

// classifyManifest decodes the longest safe edit prefix of a manifest
// image — every record before the first damage or decode failure —
// and classifies the damage, distinguishing the torn tail a crash
// legitimately leaves from interior corruption.
func classifyManifest(data []byte) ([]*version.VersionEdit, manifestState) {
	hr := wal.NewReader(data)
	hr.HaltAtCorruption = true
	var edits []*version.VersionEdit
	recs := 0
	decodeFailed := false
	for {
		rec, ok := hr.Next()
		if !ok {
			break
		}
		recs++
		edit, err := version.DecodeEdit(rec)
		if err != nil {
			decodeFailed = true
			break
		}
		edits = append(edits, edit)
	}
	// Classification pass: only a full non-halting scan can tell
	// whether valid records follow the damage.
	full := wal.NewReader(data)
	total := 0
	for {
		if _, ok := full.Next(); !ok {
			break
		}
		total++
	}
	switch {
	case full.Err() != nil:
		// CRC-level damage with valid records after it.
		return edits, manifestInterior
	case decodeFailed && total > recs:
		// A record with a valid CRC but garbage encoding, followed by
		// further records: interior damage at the edit-encoding layer.
		return edits, manifestInterior
	case decodeFailed || hr.Halted() || hr.Dropped > 0:
		return edits, manifestTornTail
	default:
		return edits, manifestClean
	}
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
	// (<table>.corrupt); Superseded are intact predecessors excluded
	// because their compaction's complete successor set is intact
	// (the committed-successor preference); Condemned are successors
	// excluded because their install's successor set is incomplete —
	// a member is damaged or missing — AND every predecessor of the
	// install is still recoverable, so the shadow-predecessor fallback
	// genuinely serves in their place. When that fallback is gone (the
	// predecessors were deleted after the install committed), intact
	// successors are Kept instead: they are the only remaining copy of
	// their key ranges. A damaged successor can appear in both
	// Quarantined and Condemned.
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
// quarantined as .corrupt), the decodable manifest edits resolve each
// predecessor/successor dependency — successors when the complete set
// is intact, shadow predecessors otherwise — and the surviving tables
// are installed at level 0 of a fresh snapshot manifest, where
// sequence numbers make overlap and staleness resolve correctly on
// read. All on-disk WALs are left in place and replayed by the next
// Open (the snapshot records log number 0); replay is idempotent
// against flushed data because batches carry their original sequence
// numbers.
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
	// repair decodes every intact record — even past interior damage —
	// because each edit's predecessor/successor relation is
	// self-contained and more history only refines the decisions.
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
			_, state := classifyManifest(data)
			rep.ManifestState = state.String()
			r := wal.NewReader(data)
			for {
				rec, ok := r.Next()
				if !ok {
					break
				}
				if edit, err := version.DecodeEdit(rec); err == nil {
					edits = append(edits, edit)
				}
			}
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

	// Resolve each recorded install's dependency, oldest edit first.
	// An edit whose complete successor set is intact supersedes the
	// predecessors it deleted. A damaged or missing successor condemns
	// the whole set — shadow predecessors serve instead — but ONLY
	// when that fallback actually exists, i.e. every predecessor's
	// content is still recoverable: the predecessor is on disk and
	// intact, or it was itself condemned — and condemnation is granted
	// only under this same coverage rule, so a condemned predecessor's
	// own fallback covers it transitively. Two cases therefore never
	// condemn. A flush or trivial move has no non-self predecessors at
	// all, so its output going missing is just the normal lifecycle (a
	// later compaction consumed it) and proves nothing; without this
	// exclusion every consumed table would be vacuously "condemned"
	// and poison the coverage check for every later edit. And a
	// compaction whose predecessors are simply gone — the install
	// committed long ago and the poller deleted them — leaves its
	// surviving successors as the only copy of their key ranges: they
	// are kept, and only the damaged member's range is lost.
	superseded := make(map[uint64]bool)
	condemned := make(map[uint64]bool)
	for _, e := range edits {
		if len(e.NewFiles) == 0 {
			continue
		}
		newSet := make(map[uint64]bool, len(e.NewFiles))
		allIntact := true
		for _, nf := range e.NewFiles {
			newSet[nf.Meta.Number] = true
			if valid[nf.Meta.Number] == nil || condemned[nf.Meta.Number] {
				allIntact = false
			}
		}
		// Non-self predecessors: a trivial move deletes and re-adds
		// the same number, which is no dependency at all.
		var preds []uint64
		for _, df := range e.DeletedFiles {
			if !newSet[df.Number] {
				preds = append(preds, df.Number)
			}
		}
		if allIntact {
			for _, p := range preds {
				superseded[p] = true
			}
			continue
		}
		if len(preds) == 0 {
			continue // flush/trivial move: no fallback exists or is needed
		}
		covered := true
		for _, p := range preds {
			if valid[p] == nil && !condemned[p] {
				covered = false
				break
			}
		}
		if covered {
			for num := range newSet {
				condemned[num] = true
			}
		}
	}
	// Report only condemnations of files actually on disk (valid or
	// quarantined): an edit whose successors were long since consumed
	// by later compactions condemns nothing that still exists.
	for _, num := range tables {
		if condemned[num] {
			rep.Condemned = append(rep.Condemned, num)
		}
	}

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
		switch {
		case meta == nil:
			// quarantined or empty; already reported
		case superseded[num]:
			rep.Superseded = append(rep.Superseded, num)
		case condemned[num]:
			// Already reported above, with its damaged siblings.
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
