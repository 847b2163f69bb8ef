// Package version implements the metadata core of the LSM-tree: the
// set of live SSTables per level (Version), the mutation records
// appended to the MANIFEST (VersionEdit), version construction from
// edit sequences (Builder), and compaction picking (size-triggered and
// seek-triggered), following LevelDB's design.
package version

import (
	"fmt"
	"sort"

	"noblsm/internal/keys"
)

// NumLevels is the number of on-disk levels (L0..L6).
const NumLevels = 7

// FileMeta describes one live SSTable.
type FileMeta struct {
	// Number is the file number ("000005.ldb").
	Number uint64
	// Size is the file length in bytes.
	Size int64
	// Smallest and Largest are the bounding internal keys.
	Smallest, Largest []byte
	// Ino is the inode number, which NobLSM registers with the
	// kernel's Pending Table via check_commit.
	Ino int64
	// AllowedSeeks is the read-miss budget before the file becomes a
	// seek-compaction candidate (LevelDB: size/16KiB, min 100).
	AllowedSeeks int
	// Hot marks an L2SM-style hot-retained output. Hot keys are
	// retained at their level for at most one compaction generation:
	// a compaction whose inputs include a hot file pushes everything
	// down. In-memory only (reset by recovery), which is safe — it
	// only influences compaction placement, never correctness.
	Hot bool
}

// SmallestUser and LargestUser return the user-key bounds.
func (f *FileMeta) SmallestUser() []byte { return keys.UserKey(f.Smallest) }

// LargestUser returns the largest user key in the file.
func (f *FileMeta) LargestUser() []byte { return keys.UserKey(f.Largest) }

func (f *FileMeta) String() string {
	return fmt.Sprintf("#%d(%s..%s, %dB)", f.Number, keys.String(f.Smallest), keys.String(f.Largest), f.Size)
}

// AfterFile reports whether ukey is past the file's range.
func (f *FileMeta) AfterFile(ukey []byte) bool {
	return keys.CompareUser(ukey, f.LargestUser()) > 0
}

// BeforeFile reports whether ukey is before the file's range.
func (f *FileMeta) BeforeFile(ukey []byte) bool {
	return keys.CompareUser(ukey, f.SmallestUser()) < 0
}

// Version is an immutable snapshot of the table set. New versions are
// produced by applying VersionEdits with a Builder.
type Version struct {
	// Files holds the tables of each level. Level 0 is ordered by
	// file number descending (newest first) and files may overlap;
	// levels >= 1 are ordered by smallest key and are disjoint,
	// unless the engine runs in fragmented (PebblesDB-style) mode,
	// in which case overlap is permitted and lookups scan like L0.
	Files [NumLevels][]*FileMeta
}

// NumFiles reports the file count at a level.
func (v *Version) NumFiles(level int) int { return len(v.Files[level]) }

// TotalSize reports the byte total of a level.
func (v *Version) TotalSize(level int) int64 {
	var n int64
	for _, f := range v.Files[level] {
		n += f.Size
	}
	return n
}

// LiveFiles returns the numbers of every file referenced by the
// version.
func (v *Version) LiveFiles() map[uint64]bool {
	live := make(map[uint64]bool)
	for level := 0; level < NumLevels; level++ {
		for _, f := range v.Files[level] {
			live[f.Number] = true
		}
	}
	return live
}

// Overlapping returns the files at level whose user-key ranges
// intersect [smallest, largest]. A nil bound is unbounded. For level 0
// the expansion rule of LevelDB applies upstream; this is the raw
// intersection.
func (v *Version) Overlapping(level int, smallest, largest []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range v.Files[level] {
		if smallest != nil && f.AfterFile(smallest) {
			continue
		}
		if largest != nil && f.BeforeFile(largest) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// SortLevel orders files for their level's invariant.
func SortLevel(level int, files []*FileMeta) {
	if level == 0 {
		sort.Slice(files, func(i, j int) bool { return files[i].Number > files[j].Number })
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if c := keys.CompareInternal(files[i].Smallest, files[j].Smallest); c != 0 {
			return c < 0
		}
		return files[i].Number < files[j].Number
	})
}

// ForLookup returns the candidate files for a point lookup of ukey at
// a level, in the order they must be consulted. fragmented selects the
// PebblesDB-style scan-all-overlapping discipline for levels >= 1.
func (v *Version) ForLookup(level int, ukey []byte, fragmented bool) []*FileMeta {
	if level == 0 || fragmented {
		var out []*FileMeta
		for _, f := range v.Files[level] {
			if !f.AfterFile(ukey) && !f.BeforeFile(ukey) {
				out = append(out, f)
			}
		}
		if level != 0 {
			// Newer files shadow older ones.
			sort.Slice(out, func(i, j int) bool { return out[i].Number > out[j].Number })
		}
		return out
	}
	files := v.Files[level]
	idx := sort.Search(len(files), func(i int) bool {
		return keys.CompareUser(files[i].LargestUser(), ukey) >= 0
	})
	if idx < len(files) && !files[idx].BeforeFile(ukey) {
		return files[idx : idx+1]
	}
	return nil
}

// DebugString renders the level populations.
func (v *Version) DebugString() string {
	s := ""
	for level := 0; level < NumLevels; level++ {
		if len(v.Files[level]) == 0 {
			continue
		}
		s += fmt.Sprintf("L%d:", level)
		for _, f := range v.Files[level] {
			s += fmt.Sprintf(" %d(%dB)", f.Number, f.Size)
		}
		s += "\n"
	}
	return s
}
