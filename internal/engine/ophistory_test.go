package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// opHistory is a filesystem that records every call a store makes on
// it — the kind, the file, offset and length where the call has them,
// and the caller's virtual instant — into a running SHA-256. It
// forwards the NobLSM syscalls (recorded too) and the page-cache view,
// and forwards Peek without recording it: a peek is uncharged and
// leaves no trace in the filesystem, so it is not part of the history.
type opHistory struct {
	vfs.FS
	mu sync.Mutex
	h  hash.Hash
	n  int
}

func newOpHistory(inner vfs.FS) *opHistory {
	return &opHistory{FS: inner, h: sha256.New()}
}

func (o *opHistory) note(tl *vclock.Timeline, kind, name string, off, n int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Fprintf(o.h, "%s %s %d %d %d\n", kind, name, off, n, tl.Now())
	o.n++
}

// digest is the record's SHA-256 so far.
func (o *opHistory) digest() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return hex.EncodeToString(o.h.Sum(nil))
}

func (o *opHistory) Create(tl *vclock.Timeline, name string) (vfs.File, error) {
	o.note(tl, "create", name, 0, 0)
	f, err := o.FS.Create(tl, name)
	if err != nil {
		return nil, err
	}
	return &opHistoryFile{File: f, o: o, name: name}, nil
}

func (o *opHistory) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	o.note(tl, "open", name, 0, 0)
	f, err := o.FS.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return &opHistoryFile{File: f, o: o, name: name}, nil
}

func (o *opHistory) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	o.note(tl, "readfile", name, 0, 0)
	return o.FS.ReadFile(tl, name)
}

func (o *opHistory) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	o.note(tl, "writefile", name, 0, int64(len(data)))
	return o.FS.WriteFile(tl, name, data)
}

func (o *opHistory) Remove(tl *vclock.Timeline, name string) error {
	o.note(tl, "remove", name, 0, 0)
	return o.FS.Remove(tl, name)
}

func (o *opHistory) Rename(tl *vclock.Timeline, oldName, newName string) error {
	o.note(tl, "rename", oldName+">"+newName, 0, 0)
	return o.FS.Rename(tl, oldName, newName)
}

func (o *opHistory) Exists(tl *vclock.Timeline, name string) bool {
	o.note(tl, "exists", name, 0, 0)
	return o.FS.Exists(tl, name)
}

func (o *opHistory) List(tl *vclock.Timeline) []string {
	o.note(tl, "list", "", 0, 0)
	return o.FS.List(tl)
}

func (o *opHistory) Size(tl *vclock.Timeline, name string) (int64, error) {
	o.note(tl, "size", name, 0, 0)
	return o.FS.Size(tl, name)
}

func (o *opHistory) SyncDir(tl *vclock.Timeline) error {
	o.note(tl, "syncdir", "", 0, 0)
	return o.FS.SyncDir(tl)
}

func (o *opHistory) sys() interface {
	CheckCommit(tl *vclock.Timeline, inos ...int64)
	IsCommitted(tl *vclock.Timeline, ino int64) bool
	CommittedSize(tl *vclock.Timeline, ino int64) int64
} {
	return o.FS.(*ext4.FS)
}

func (o *opHistory) CheckCommit(tl *vclock.Timeline, inos ...int64) {
	o.note(tl, "checkcommit", fmt.Sprint(inos), 0, 0)
	o.sys().CheckCommit(tl, inos...)
}

func (o *opHistory) IsCommitted(tl *vclock.Timeline, ino int64) bool {
	o.note(tl, "iscommitted", "", ino, 0)
	return o.sys().IsCommitted(tl, ino)
}

func (o *opHistory) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	o.note(tl, "committedsize", "", ino, 0)
	return o.sys().CommittedSize(tl, ino)
}

type opHistoryFile struct {
	vfs.File
	o    *opHistory
	name string
}

func (f *opHistoryFile) Append(tl *vclock.Timeline, p []byte) error {
	f.o.note(tl, "append", f.name, f.File.Size(), int64(len(p)))
	return f.File.Append(tl, p)
}

func (f *opHistoryFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	f.o.note(tl, "readat", f.name, off, int64(len(p)))
	return f.File.ReadAt(tl, p, off)
}

func (f *opHistoryFile) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	f.o.note(tl, "readview", f.name, off, int64(n))
	return f.File.(vfs.ViewReader).ReadView(tl, n, off)
}

// Peek forwards without recording.
func (f *opHistoryFile) Peek(off int64) ([]byte, error) {
	return f.File.(vfs.Peeker).Peek(off)
}

func (f *opHistoryFile) Sync(tl *vclock.Timeline) error {
	f.o.note(tl, "sync", f.name, 0, 0)
	return f.File.Sync(tl)
}

func (f *opHistoryFile) Close(tl *vclock.Timeline) error {
	f.o.note(tl, "close", f.name, 0, 0)
	return f.File.Close(tl)
}

// TestCompactionOpHistory pins the filesystem history of a
// deterministic inline store, call for call and instant for instant,
// in configurations that take the compaction path through each of its
// branches: the paper's options; the tuned read options with a codec
// ladder (compressed inputs and outputs, by level, so the stages run
// apart); snapshots held while keys are rewritten, so that several
// versions of one key survive a merge and table cuts land inside them,
// mid-block — on raw tables and on encoded ones; and L2SM-style hot
// retention under SyncAll, whose merge runs two outputs and fsyncs each
// cold table as it is cut. The digests of the raw stores were taken
// from the single-goroutine merge loop the compaction stages replaced;
// those of the two encoded ones (read-tuned, snapshots-encoded) from
// the stages at -cpu 1, once compactions adopted untouched encoded
// blocks (mergeStage.adopt), and they hold at -cpu 2 as well: a
// changed digest means a virtual instant, a byte count or the order of
// filesystem calls moved, and with them every exact benchmark metric.
func TestCompactionOpHistory(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*Options)
		snap bool
		want string
	}{
		{"paper", func(*Options) {}, false,
			"b62451a42d3522084a4627e4b0a19447a3fab733e7414bd33907074c15295642"},
		{"read-tuned", func(o *Options) {
			o.BlockSize = 8192
			o.Compression = sstable.FastCompression
			o.CompressionByLevel = make([]sstable.Compression, version.NumLevels)
			for l := range o.CompressionByLevel {
				o.CompressionByLevel[l] = sstable.MaxCompression
				if l < 2 {
					o.CompressionByLevel[l] = sstable.FastCompression
				}
			}
			o.BlockCacheBytes = 256 << 10
			o.CompressedBlockCacheBytes = 512 << 10
			o.BloomBitsPerKeyByLevel = []int{14, 12, 10, 10, 8, 8, 6}[:version.NumLevels]
		}, false,
			"49d435631f13423ed1459bf56d987d5b5995642ef4f34507af89008502410438"},
		{"snapshots", func(*Options) {}, true,
			"462478acc486e756297d4413b9f1d704bc1f923aa3838d7221dbbef691ddd868"},
		{"snapshots-encoded", func(o *Options) { o.Compression = sstable.FastCompression }, true,
			"a4b23bc3d35ceb1f514d824847d1122d373a037b98ccdc97e58da9b0d4c22722"},
		{"hot-syncall", func(o *Options) {
			o.SyncMode = SyncAll
			o.HotCold, o.HotThreshold = true, 2
		}, false,
			"eacd9f61f37e3e3acfa986f0102eb7153917294e814676315706d464be40d942"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(SyncNobLSM)
			tc.tune(&opts)
			rec := newOpHistory(ext4.New(smallFSConfig(), smallDevice()))
			tl := vclock.NewTimeline(0)
			db, err := Open(tl, rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(34))
			var snaps []*Snapshot
			for i := 0; i < 6000; i++ {
				span := 1500
				if tc.snap {
					span = 120 // few keys, many versions each
				}
				key := fmt.Sprintf("key%05d", r.Intn(span))
				if i%2 == 0 {
					key = fmt.Sprintf("hot%03d", r.Intn(40))
				}
				switch {
				case i%13 == 0:
					err = db.Delete(tl, []byte(key))
				case i%7 == 0:
					_, err = db.Get(tl, []byte(key))
					if err == ErrNotFound {
						err = nil
					}
				default:
					v := healValue(key)
					v[0] = byte(i)
					err = db.Put(tl, []byte(key), v)
				}
				if err != nil {
					t.Fatal(err)
				}
				if tc.snap && i%250 == 0 {
					snaps = append(snaps, db.GetSnapshot())
				}
			}
			if err := db.CompactRange(tl, nil, nil); err != nil {
				t.Fatal(err)
			}
			for _, s := range snaps {
				if err := db.ReleaseSnapshot(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange(tl, nil, nil); err != nil {
				t.Fatal(err)
			}
			if db.m.major.Value() == 0 {
				t.Fatal("no major compaction ran")
			}
			if err := db.Close(tl); err != nil {
				t.Fatal(err)
			}
			rec.note(tl, "end", "", 0, 0)
			if got := rec.digest(); got != tc.want {
				t.Errorf("%d calls, %d majors, ended at %v: history sha256 %s, want %s",
					rec.n, db.m.major.Value(), tl.Now(), got, tc.want)
			}
		})
	}
}
