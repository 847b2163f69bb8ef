// checkpoint.go implements Backup, the one export of a live store, and
// RestoreBackup.
//
// A backup exports a self-contained store image under a name prefix
// ("bk/...") of the same filesystem. Tables and rotated logs are
// exported as hard links — no data copy, and the export shares inodes
// with the primary, so once the primary's disposal unlinks its names
// the bytes live on under the export's: the links are the references,
// and ext4's nlink counts them. Only the active WAL's acked prefix and
// a fresh manifest snapshot are written out, so a backup costs
// O(manifest + WAL tail), never O(data).
//
// The cut and its links are taken in one db.mu section. While db.mu is
// held no table of db.current and no log at or above the replay floor
// can be unlinked (disposal.go), so nothing is pinned at any point and
// nothing is held once Backup returns. A backup into a directory that
// does not exist yet is a checkpoint; into one a previous backup left
// it is incremental: present tables and logs are reused, stale files
// pruned, and the WAL prefix, manifest and CURRENT rewritten.
// RestoreBackup funnels through Repair, so a restored store passes the
// same validation as a repaired one (restore ≡ repair).
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

// BackupInfo summarizes one Backup run.
type BackupInfo struct {
	Dir string
	// WALNumber/WALOff locate the backup's cut in the store's
	// write-ahead log: the export holds the first WALOff bytes of
	// WALNumber, and the first record it lacks starts there.
	WALNumber uint64
	WALOff    int64
	// LastSeq is the newest sequence number the backup contains.
	LastSeq keys.SeqNum
	At      vclock.Time

	TablesLinked int // tables and logs newly hard-linked this run
	TablesReused int // tables and logs already present from a previous run
	Pruned       int // stale files removed from the destination
	CopiedBytes  int64
}

// backupCut is the consistent cut taken under db.mu: the immutable
// version, the WAL position at a whole-group record boundary (the
// leader appends while holding db.mu, so Size() here never splits a
// record or an acked group), the replay floor, and the rotated logs
// still holding unflushed records.
type backupCut struct {
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

// export is one Backup in progress: the cut, the destination's names
// before the run and those it keeps, the live WAL's acked prefix, and
// the tally.
type export struct {
	prefix   string
	cut      backupCut
	existing map[string]bool
	keep     map[string]bool
	wal      []byte

	linked, reused, pruned int
	copied                 int64
}

// Backup exports the current state under dir (a name prefix of the
// store's own filesystem): every table and rotated log the destination
// lacks is hard-linked, stale files are pruned, and the manifest + WAL
// prefix are rewritten. Writers contend only on the db.mu section that
// takes the cut and links it. On failure the destination keeps
// whatever state it had plus any new links — a restore runs Repair,
// which salvages either way.
func (db *DB) Backup(tl *vclock.Timeline, dir string) (*BackupInfo, error) {
	if dir == "" || strings.HasSuffix(dir, "/") {
		return nil, fmt.Errorf("engine: invalid backup directory %q", dir)
	}
	e := &export{prefix: dir + "/", existing: make(map[string]bool), keep: make(map[string]bool)}
	if err := db.cutAndLink(tl, e); err != nil {
		return nil, err
	}
	if err := db.writeExport(tl, e); err != nil {
		return nil, err
	}
	cut := &e.cut
	db.m.backups.Inc()
	db.m.backupLinked.Add(int64(e.linked))
	db.m.backupCopied.Add(e.copied)
	db.m.lastBackupSeq.Set(int64(cut.lastSeq))
	db.m.lastBackupAt.Set(int64(cut.at))
	return &BackupInfo{
		Dir:          dir,
		WALNumber:    cut.walNum,
		WALOff:       cut.walCut,
		LastSeq:      cut.lastSeq,
		At:           cut.at,
		TablesLinked: e.linked,
		TablesReused: e.reused,
		Pruned:       e.pruned,
		CopiedBytes:  e.copied,
	}, nil
}

// cutAndLink takes the cut, links every table of its version and every
// rotated log it needs into the destination, and reads the live WAL's
// acked prefix — all under db.mu, so the cut is atomic against writers,
// flush installs and compaction installs, and no file it names can be
// unlinked before its link exists.
func (db *DB) cutAndLink(tl *vclock.Timeline, e *export) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	cut := &e.cut
	*cut = backupCut{
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

	for _, name := range db.fs.List(tl) {
		if strings.HasPrefix(name, e.prefix) {
			e.existing[name[len(e.prefix):]] = true
		}
	}
	link := func(name string, size int64) error {
		e.keep[name] = true
		if e.existing[name] {
			e.reused++
			return nil
		}
		linked, err := vfs.LinkOrCopy(tl, db.fs, name, e.prefix+name)
		if err != nil {
			return err
		}
		if linked {
			e.linked++
		} else {
			e.copied += size
		}
		return nil
	}
	for level := 0; level < version.NumLevels; level++ {
		for _, fm := range cut.v.Files[level] {
			if name := TableName(fm.Number); !e.keep[name] {
				if err := link(name, fm.Size); err != nil {
					return err
				}
			}
		}
	}
	for _, num := range cut.rotated {
		if err := link(LogName(num), cut.logSize[num]); err != nil {
			return err
		}
	}

	// The active WAL keeps growing past the cut, so its acked prefix is
	// the one part of the image that must be copied, not linked.
	e.wal = make([]byte, cut.walCut)
	if cut.walCut > 0 {
		f, err := db.fs.Open(tl, LogName(cut.walNum))
		if err != nil {
			return err
		}
		_, err = f.ReadAt(tl, e.wal, 0)
		f.Close(tl)
		if err != nil {
			return err
		}
	}
	return nil
}

// writeExport writes what cutAndLink read — the WAL prefix, a manifest
// snapshot of the cut and CURRENT — and prunes the destination. It
// touches export names only, so it runs outside db.mu. No file is
// synced: durability rides the journal exactly like the primary's own
// files (the fresh manifest's bytes are appended after every table
// byte it references, so data=ordered commits them no earlier), and a
// restore funnels through Repair regardless.
func (db *DB) writeExport(tl *vclock.Timeline, e *export) error {
	cut := &e.cut
	walName := LogName(cut.walNum)
	e.keep[walName] = true
	if err := db.fs.WriteFile(tl, e.prefix+walName, e.wal); err != nil {
		return err
	}
	e.copied += cut.walCut

	// Fresh manifest snapshot: one edit describing the captured
	// version, numbered past every file it references so the restored
	// allocator never aliases an exported file.
	mname := ManifestName(cut.next)
	e.keep[mname] = true
	mf, err := db.fs.Create(tl, e.prefix+mname)
	if err != nil {
		return err
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
		return err
	}
	e.copied += mf.Size()
	mf.Close(tl)

	current := []byte(mname + "\n")
	e.keep[CurrentName] = true
	if err := db.fs.WriteFile(tl, e.prefix+CurrentName, current); err != nil {
		return err
	}
	e.copied += int64(len(current))

	// Prune engine files a previous export left behind that this cut no
	// longer references (superseded tables, rotated-away logs, the old
	// manifest). Foreign names are left alone.
	for name := range e.existing {
		if e.keep[name] {
			continue
		}
		if _, _, ok := ParseFileName(name); !ok {
			continue
		}
		db.fs.Remove(tl, e.prefix+name)
		e.pruned++
	}
	return nil
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
