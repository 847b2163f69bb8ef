// checkpoint.go implements zero-copy checkpoints and incremental
// backup.
//
// A checkpoint pins the current manifest version plus its file set and
// exports a self-contained store image under a name prefix
// ("ckpt-1/...") of the same filesystem. Tables and rotated logs are
// exported as hard links — no data copy, and the export shares inodes
// with the primary, so even after release-side GC unlinks the primary
// names the bytes survive under the export's names. Only the active
// WAL's acked prefix (captured at a group-commit boundary under db.mu)
// and a fresh manifest snapshot are written out, so checkpoint cost is
// O(manifest + WAL tail), never O(data).
//
// The pins live in one registry (ckpts, under the leaf lock ckptMu)
// that the disposal decision consults (disposal.go): a pinned table or
// log stays queued as a candidate — also a checkpointed table that a
// later compaction superseded and the NobLSM tracker has since
// released. Releasing the last checkpoint reference frees everything
// retained.
//
// Backup reuses the same capture/export machinery incrementally: only
// tables absent from the destination are linked, stale files are
// pruned, and the manifest + WAL tail are rewritten. RestoreBackup
// funnels through Repair, so a restored store passes the same
// validation as a repaired one (restore ≡ repair).
package engine

import (
	"fmt"
	"sort"
	"strings"

	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
	"noblsm/internal/wal"
)

// CheckpointFile is one exported file of a checkpoint or backup.
type CheckpointFile struct {
	Name string // relative to the checkpoint directory
	Size int64
	// Linked reports the file shares its inode with the primary copy
	// (zero-copy export); false means its bytes were written fresh
	// (the WAL prefix, the manifest snapshot, CURRENT, or a copy
	// fallback on a filesystem without hard links).
	Linked bool
}

// CheckpointInfo describes one live checkpoint reference.
type CheckpointInfo struct {
	ID  uint64
	Dir string

	// WALNumber/WALOff locate the checkpoint's cut in the store's
	// write-ahead log: the export holds the first WALOff bytes of
	// WALNumber, and the first record it lacks starts there.
	WALNumber uint64
	WALOff    int64
	// LastSeq is the newest sequence number the checkpoint contains.
	LastSeq   keys.SeqNum
	CreatedAt vclock.Time

	Files []CheckpointFile
	// Tables and Logs are the pinned primary file numbers.
	Tables []uint64
	Logs   []uint64
	// Linked counts files exported zero-copy; CopiedBytes counts the
	// bytes that were actually written (WAL prefix + manifest).
	Linked      int
	CopiedBytes int64
}

// BackupInfo summarizes one incremental Backup run.
type BackupInfo struct {
	Dir       string
	WALNumber uint64
	WALOff    int64
	LastSeq   keys.SeqNum
	At        vclock.Time

	TablesLinked int // tables newly hard-linked this run
	TablesReused int // tables already present from a previous run
	Pruned       int // stale files removed from the destination
	CopiedBytes  int64
}

// checkpointRef is the registry entry backing one checkpoint: the
// pinned file numbers with their sizes (for the retained-bytes gauge)
// plus the public info.
type checkpointRef struct {
	info   CheckpointInfo
	tables map[uint64]int64
	logs   map[uint64]int64
}

// ckptCapture is the consistent cut taken under db.mu: the immutable
// version, the WAL position at a whole-group record boundary (the
// leader appends while holding db.mu, so Size() here never splits a
// record or an acked group), the replay floor, and the rotated logs
// still holding unflushed records.
type ckptCapture struct {
	v       *version.Version
	rotated []uint64
	logSize map[uint64]int64
	walNum  uint64
	walCut  int64
	floor   uint64
	lastSeq keys.SeqNum
	next    uint64
	at      vclock.Time
}

// captureCheckpoint takes the cut and registers the pins — all under
// db.mu, so the capture is atomic against writers, flush installs and
// compaction installs. The export runs after, outside every lock.
func (db *DB) captureCheckpoint(tl *vclock.Timeline) (*ckptCapture, *checkpointRef, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return nil, nil, ErrClosed
	}
	cut := &ckptCapture{
		v:       db.current,
		logSize: make(map[uint64]int64),
		walNum:  db.walNumber,
		walCut:  db.walFile.Size(),
		floor:   db.logNumber,
		lastSeq: db.lastSeq,
		next:    db.nextFile.Load(),
		at:      tl.Now(),
	}
	for _, name := range db.fs.List(tl) {
		kind, num, ok := ParseFileName(name)
		if ok && kind == KindLog && num >= cut.floor && num < cut.walNum {
			cut.rotated = append(cut.rotated, num)
			if sz, err := db.fs.Size(tl, name); err == nil {
				cut.logSize[num] = sz
			}
		}
	}
	sort.Slice(cut.rotated, func(i, j int) bool { return cut.rotated[i] < cut.rotated[j] })

	ref := &checkpointRef{tables: make(map[uint64]int64), logs: make(map[uint64]int64)}
	var tables []uint64
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range cut.v.Files[level] {
			if _, ok := ref.tables[fm.Number]; !ok {
				ref.tables[fm.Number] = fm.Size
				tables = append(tables, fm.Number)
			}
		}
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i] < tables[j] })
	for _, n := range cut.rotated {
		ref.logs[n] = cut.logSize[n]
	}

	db.ckptMu.Lock()
	db.ckptSeq++
	ref.info = CheckpointInfo{
		ID:        db.ckptSeq,
		WALNumber: cut.walNum,
		WALOff:    cut.walCut,
		LastSeq:   cut.lastSeq,
		CreatedAt: cut.at,
		Tables:    tables,
		Logs:      append([]uint64(nil), cut.rotated...),
	}
	db.ckpts[ref.info.ID] = ref
	db.ckptGaugesLocked()
	db.ckptMu.Unlock()
	return cut, ref, nil
}

// exportResult is the outcome of one export pass.
type exportResult struct {
	files  []CheckpointFile
	linked int
	reused int
	pruned int
	copied int64
}

// exportCheckpoint materializes a capture under dir. It is incremental
// against whatever the directory already holds: present tables and
// rotated logs are reused, absent ones hard-linked, and stale engine
// files pruned; the WAL prefix, manifest snapshot and CURRENT are
// rewritten every time. No file is synced — durability rides the
// journal exactly like the primary's own files (the fresh manifest's
// bytes are appended after every table byte it references, so
// data=ordered commits them no earlier), and a restore funnels through
// Repair regardless.
func (db *DB) exportCheckpoint(tl *vclock.Timeline, cut *ckptCapture, dir string) (*exportResult, error) {
	prefix := dir + "/"
	existing := make(map[string]bool)
	for _, name := range db.fs.List(tl) {
		if strings.HasPrefix(name, prefix) {
			existing[name[len(prefix):]] = true
		}
	}
	res := &exportResult{}
	keep := make(map[string]bool)
	export := func(name string, size int64) error {
		keep[name] = true
		if existing[name] {
			res.reused++
			res.files = append(res.files, CheckpointFile{Name: name, Size: size, Linked: true})
			return nil
		}
		linked, err := vfs.LinkOrCopy(tl, db.fs, name, prefix+name)
		if err != nil {
			return err
		}
		if linked {
			res.linked++
		} else {
			res.copied += size
		}
		res.files = append(res.files, CheckpointFile{Name: name, Size: size, Linked: linked})
		return nil
	}
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range cut.v.Files[level] {
			name := TableName(fm.Number)
			if keep[name] {
				continue
			}
			if err := export(name, fm.Size); err != nil {
				return nil, err
			}
		}
	}
	for _, num := range cut.rotated {
		if err := export(LogName(num), cut.logSize[num]); err != nil {
			return nil, err
		}
	}

	// The active WAL keeps growing past the cut, so its acked prefix is
	// the one part of the image that must be copied, not linked.
	walName := LogName(cut.walNum)
	keep[walName] = true
	buf := make([]byte, cut.walCut)
	if cut.walCut > 0 {
		f, err := db.fs.Open(tl, walName)
		if err != nil {
			return nil, err
		}
		_, err = f.ReadAt(tl, buf, 0)
		f.Close(tl)
		if err != nil {
			return nil, err
		}
	}
	if err := db.fs.WriteFile(tl, prefix+walName, buf); err != nil {
		return nil, err
	}
	res.copied += cut.walCut
	res.files = append(res.files, CheckpointFile{Name: walName, Size: cut.walCut})

	// Fresh manifest snapshot: one edit describing the captured
	// version, numbered past every file it references so the restored
	// allocator never aliases an exported file.
	mname := ManifestName(cut.next)
	keep[mname] = true
	mf, err := db.fs.Create(tl, prefix+mname)
	if err != nil {
		return nil, err
	}
	w := wal.NewWriter(mf)
	snap := &version.VersionEdit{}
	snap.SetLogNumber(cut.floor)
	snap.SetNextFileNumber(cut.next + 1)
	snap.SetLastSeq(cut.lastSeq)
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range cut.v.Files[level] {
			snap.AddFile(level, fm)
		}
	}
	if err := w.AddRecord(tl, snap.Encode()); err != nil {
		mf.Close(tl)
		return nil, err
	}
	msize := mf.Size()
	mf.Close(tl)
	res.copied += msize
	res.files = append(res.files, CheckpointFile{Name: mname, Size: msize})

	current := []byte(mname + "\n")
	keep[CurrentName] = true
	if err := db.fs.WriteFile(tl, prefix+CurrentName, current); err != nil {
		return nil, err
	}
	res.copied += int64(len(current))
	res.files = append(res.files, CheckpointFile{Name: CurrentName, Size: int64(len(current))})

	// Prune engine files a previous export left behind that this cut no
	// longer references (superseded tables, rotated-away logs, the old
	// manifest). Foreign names are left alone.
	for name := range existing {
		if keep[name] {
			continue
		}
		if _, _, ok := ParseFileName(name); !ok {
			continue
		}
		db.fs.Remove(tl, prefix+name)
		res.pruned++
	}
	return res, nil
}

// Checkpoint pins the current version and exports it as a
// self-contained store under dir (a name prefix of the store's own
// filesystem). The capture is atomic, the export zero-copy for all
// SSTable bytes, and the foreground never stalls: writers only contend
// on db.mu for the capture itself, which reads a few fields and
// registers pins. The returned reference keeps every captured file —
// including NobLSM shadow predecessors of captured tables — alive
// until ReleaseCheckpoint.
func (db *DB) Checkpoint(tl *vclock.Timeline, dir string) (CheckpointInfo, error) {
	if dir == "" || strings.HasSuffix(dir, "/") {
		return CheckpointInfo{}, fmt.Errorf("engine: invalid checkpoint directory %q", dir)
	}
	prefix := dir + "/"
	for _, name := range db.fs.List(tl) {
		if strings.HasPrefix(name, prefix) {
			return CheckpointInfo{}, fmt.Errorf("engine: checkpoint directory %q not empty", dir)
		}
	}
	cut, ref, err := db.captureCheckpoint(tl)
	if err != nil {
		return CheckpointInfo{}, err
	}
	res, err := db.exportCheckpoint(tl, cut, dir)
	if err != nil {
		// Unpin and sweep the partial export; the primary is untouched.
		db.releaseCheckpointRef(tl, ref.info.ID, false)
		for _, name := range db.fs.List(tl) {
			if strings.HasPrefix(name, prefix) {
				db.fs.Remove(tl, name)
			}
		}
		return CheckpointInfo{}, err
	}
	db.ckptMu.Lock()
	ref.info.Dir = dir
	ref.info.Files = res.files
	ref.info.Linked = res.linked
	ref.info.CopiedBytes = res.copied
	info := ref.info
	db.ckptMu.Unlock()
	db.m.ckptCreated.Inc()
	db.m.ckptLinkedFiles.Add(int64(res.linked))
	db.m.ckptCopiedBytes.Add(res.copied)
	return info, nil
}

// ReleaseCheckpoint drops a checkpoint reference: the export directory
// is deleted, the pins are released, and a disposal pass reclaims
// whatever the reference alone was keeping alive.
func (db *DB) ReleaseCheckpoint(tl *vclock.Timeline, id uint64) error {
	if err := db.releaseCheckpointRef(tl, id, true); err != nil {
		return err
	}
	db.m.ckptReleased.Inc()
	return nil
}

func (db *DB) releaseCheckpointRef(tl *vclock.Timeline, id uint64, removeFiles bool) error {
	db.ckptMu.Lock()
	ref, ok := db.ckpts[id]
	if !ok {
		db.ckptMu.Unlock()
		return fmt.Errorf("engine: no such checkpoint %d", id)
	}
	delete(db.ckpts, id)
	db.ckptGaugesLocked()
	db.ckptMu.Unlock()

	if removeFiles && ref.info.Dir != "" {
		for _, f := range ref.info.Files {
			db.fs.Remove(tl, ref.info.Dir+"/"+f.Name)
		}
	}
	if !db.closed.Load() {
		// Mop up primary files only the released pin was retaining.
		db.mu.Lock()
		db.deleteObsolete(tl)
		db.mu.Unlock()
	}
	return nil
}

// Checkpoints lists the live checkpoint references, oldest first.
func (db *DB) Checkpoints() []CheckpointInfo {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	out := make([]CheckpointInfo, 0, len(db.ckpts))
	for _, ref := range db.ckpts {
		out = append(out, ref.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ckptGaugesLocked recomputes the checkpoint gauges; caller holds
// ckptMu.
func (db *DB) ckptGaugesLocked() {
	var files, bytes int64
	seen := make(map[uint64]bool)
	for _, ref := range db.ckpts {
		for num, size := range ref.tables {
			if !seen[num] {
				seen[num] = true
				files++
				bytes += size
			}
		}
		for num, size := range ref.logs {
			if !seen[num] {
				seen[num] = true
				files++
				bytes += size
			}
		}
	}
	db.m.ckptActive.Set(int64(len(db.ckpts)))
	db.m.ckptPinnedFiles.Set(files)
	db.m.ckptRetainedBytes.Set(bytes)
}

// Backup incrementally exports the current state under dir: only
// tables the destination lacks are hard-linked, stale files are
// pruned, and the manifest + WAL prefix are rewritten. The capture
// holds a transient pin for the duration of the export; afterward the
// destination's hard links keep the data alive on their own, so a
// backup — unlike a checkpoint — retains nothing on the primary.
func (db *DB) Backup(tl *vclock.Timeline, dir string) (*BackupInfo, error) {
	if dir == "" || strings.HasSuffix(dir, "/") {
		return nil, fmt.Errorf("engine: invalid backup directory %q", dir)
	}
	cut, ref, err := db.captureCheckpoint(tl)
	if err != nil {
		return nil, err
	}
	res, err := db.exportCheckpoint(tl, cut, dir)
	// Transient pin: drop it whether or not the export succeeded. On
	// failure the destination keeps whatever state it had plus any new
	// links — a restore runs Repair, which salvages either way.
	db.releaseCheckpointRef(tl, ref.info.ID, false)
	if err != nil {
		return nil, err
	}
	info := &BackupInfo{
		Dir:          dir,
		WALNumber:    cut.walNum,
		WALOff:       cut.walCut,
		LastSeq:      cut.lastSeq,
		At:           cut.at,
		TablesLinked: res.linked,
		TablesReused: res.reused,
		Pruned:       res.pruned,
		CopiedBytes:  res.copied,
	}
	db.ckptMu.Lock()
	db.lastBackup = info
	db.ckptMu.Unlock()
	db.m.backups.Inc()
	db.m.ckptLinkedFiles.Add(int64(res.linked))
	db.m.ckptCopiedBytes.Add(res.copied)
	db.m.lastBackupSeq.Set(int64(cut.lastSeq))
	db.m.lastBackupAt.Set(int64(cut.at))
	return info, nil
}

// LastBackup reports the most recent successful Backup, or nil.
func (db *DB) LastBackup() *BackupInfo {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.lastBackup
}

// RestoreBackup materializes the store exported under srcDir as a
// fresh store under dstDir ("" restores into the filesystem root) and
// validates it by funneling through Repair — the restore ≡ repair
// invariant: a restored backup passes exactly the checks a repaired
// store does, including full-table scans of every kept SSTable. The
// source is never mutated (Repair renames and writes only destination
// names; linked table bytes are immutable). Open the result with
// vfs.NewPrefix(fs, dstDir).
func RestoreBackup(tl *vclock.Timeline, fs vfs.FS, srcDir, dstDir string, opts Options) (*RepairReport, error) {
	srcPrefix := srcDir + "/"
	n := 0
	for _, name := range fs.List(tl) {
		if !strings.HasPrefix(name, srcPrefix) {
			continue
		}
		rest := name[len(srcPrefix):]
		if _, _, ok := ParseFileName(rest); !ok {
			continue
		}
		dst := rest
		if dstDir != "" {
			dst = dstDir + "/" + rest
		}
		if _, err := vfs.LinkOrCopy(tl, fs, name, dst); err != nil {
			return nil, err
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("engine: restore: no store files under %q", srcDir)
	}
	target := fs
	if dstDir != "" {
		target = vfs.NewPrefix(fs, dstDir)
	}
	return Repair(tl, target, opts)
}
