package ext4

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"noblsm/internal/obs"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// appendFile creates name and fills it with size bytes in appends of
// at most piece bytes, leaving the handle open.
func appendFile(t testing.TB, fs *FS, tl *vclock.Timeline, name string, size, piece int) vfs.File {
	t.Helper()
	f, err := fs.Create(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, piece)
	for size > 0 {
		n := min(piece, size)
		if err := f.Append(tl, buf[:n]); err != nil {
			t.Fatal(err)
		}
		size -= n
	}
	return f
}

// TestPageCacheHoldsWhatWasWritten is the host-memory ratchet: a file
// mix shaped like the benchmark's overwrite peak — ~200 tables written
// a 4 KiB block at a time, 4–700 KiB each (live tables beside the
// shadows and half-built outputs of compactions), a WAL of 1 KiB
// records and a few tiny files — holds less than the file bytes plus
// a page per file once each is closed: its last extent is trimmed to
// whole pages. (A file still open may hold up to an extent more.)
func TestPageCacheHoldsWhatWasWritten(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	r := rand.New(rand.NewSource(1))
	var want, bound int64
	add := func(f vfs.File) {
		want += f.Size()
		bound += f.Size() + pageBytes
		if err := f.Close(tl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		add(appendFile(t, fs, tl, fmt.Sprintf("%06d.ldb", i), 4<<10+r.Intn(696<<10), 4<<10))
	}
	add(appendFile(t, fs, tl, "000201.log", 2<<20+r.Intn(1<<20), 1<<10))
	for _, name := range []string{"CURRENT", "LOCK", "MANIFEST-000002"} {
		add(appendFile(t, fs, tl, name, 16+r.Intn(4<<10), 1<<10))
	}
	held, files := fs.pc.held.n, fs.pc.files.n
	if files != want {
		t.Fatalf("file bytes %d, want %d", files, want)
	}
	t.Logf("%d chunk bytes held for %d file bytes (+%.1f %%) at %d KiB extents, %d in tail pieces",
		held, files, 100*float64(held-files)/float64(files), ExtentBytes>>10, fs.pc.tails.n)
	if held >= bound {
		t.Errorf("the page cache holds %d bytes for %d bytes of files, not less than a page more per file (%d)", held, files, bound)
	}
}

// need is what files hold: chunk bytes, the part of them in tail
// pieces, and file bytes.
type need struct{ held, tails, files int64 }

// trimmed is what a file of n bytes holds once its writer has closed
// it: whole extents, and its last one's bytes in a tail piece of whole
// pages, unless they fill the extent's last page.
func trimmed(n int64) need {
	nd := need{held: n/ExtentBytes*ExtentBytes + pages(n%ExtentBytes)*pageBytes, files: n}
	if k := pages(n % ExtentBytes); k < extentPages {
		nd.tails = k * pageBytes
	}
	return nd
}

// untrimmed is what a file of n bytes holds in whole extents, as it
// does while its writer has it open or after a crash cut it.
func untrimmed(n int64) need {
	return need{held: (n + ExtentBytes - 1) / ExtentBytes * ExtentBytes, files: n}
}

// pcCheck compares fs's page-cache meters with what its files need,
// and the free meter with the free lists: each list holds chunks of
// its own size, and the free bytes are the chunks on them plus the
// slab ends no chunk fits. No chunk is on a list twice or on a list
// and in a file.
func pcCheck(t *testing.T, fs *FS, when string, files ...need) {
	t.Helper()
	var want need
	for _, nd := range files {
		want.held += nd.held
		want.tails += nd.tails
		want.files += nd.files
	}
	pc := &fs.pc
	if got := (need{pc.held.n, pc.tails.n, pc.files.n}); got != want {
		t.Errorf("%s: %d chunk bytes held (%d in tail pieces) for %d file bytes, want %d (%d) for %d",
			when, got.held, got.tails, got.files, want.held, want.tails, want.files)
	}
	owner := make(map[*byte]string)
	claim := func(c []byte, who string) {
		p := &c[:1][0]
		if prev, dup := owner[p]; dup {
			t.Errorf("%s: one chunk is both %s and %s", when, prev, who)
		}
		owner[p] = who
	}
	for _, in := range fs.inodes {
		for i, c := range in.data.chunks {
			claim(c, fmt.Sprintf("chunk %d of inode %d", i, in.ino))
		}
	}
	listed := pc.ends
	for k, list := range pc.free {
		for _, c := range list {
			if cap(c) != k*pageBytes {
				t.Errorf("%s: a chunk of %d bytes on the %d-page list", when, cap(c), k)
			}
			claim(c, fmt.Sprintf("on the %d-page list", k))
			listed += int64(cap(c))
		}
	}
	if pc.idle.n != listed {
		t.Errorf("%s: %d bytes free, but the lists hold %d and slab ends %d",
			when, pc.idle.n, listed-pc.ends, pc.ends)
	}
}

// TestCrashAndReleaseLoseNoChunk: every chunk a file gives up — its
// empty part when its writer closes it, its cut tail at a crash, the
// whole file when a crash erases it, when its unlink commits or when
// its last handle closes after either — goes to a free list, so chunk
// bytes held plus chunk bytes free grow only a slab at a time, and
// what inodes hold is exactly what the files left need. A crash that
// cuts a trimmed file back to a whole extent returns its tail piece
// with the extents past the cut, and the Close of a file's last
// handle, a reader's too, trims what the cut left.
func TestCrashAndReleaseLoseNoChunk(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	total := func() int64 { return fs.pc.held.n + fs.pc.idle.n }

	const kept, tail = 3*ExtentBytes + 100, 2*ExtentBytes + 7
	closeFile := func(f vfs.File) {
		if err := f.Close(tl); err != nil {
			t.Fatal(err)
		}
	}
	closeFile(appendFile(t, fs, tl, "kept", kept, 4<<10))
	wal := appendFile(t, fs, tl, "wal", ExtentBytes+50, 1<<10)
	// "cut" is durable up to the middle of what becomes its tail piece.
	cut := appendFile(t, fs, tl, "cut", 2*ExtentBytes+9000, 1<<10)
	fs.ForceCommit(tl)
	if err := wal.Append(tl, make([]byte, tail)); err != nil {
		t.Fatal(err)
	}
	closeFile(wal)
	if err := cut.Append(tl, make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	closeFile(cut)
	closeFile(appendFile(t, fs, tl, "erased", 5*ExtentBytes+3, 4<<10))
	severed := appendFile(t, fs, tl, "erased-open", 2*ExtentBytes, 4<<10)
	pcCheck(t, fs, "before the crash", trimmed(kept), trimmed(ExtentBytes+50+tail),
		trimmed(2*ExtentBytes+14000), trimmed(5*ExtentBytes+3), untrimmed(2*ExtentBytes))
	before := total()

	fs.Crash(tl.Now())
	if got := total(); got != before {
		t.Fatalf("the crash changed held + free from %d to %d bytes", before, got)
	}
	// The wal's cut leaves a whole extent holding 50 bytes (its piece
	// went back), and cut's leaves its four-page piece holding 9000.
	// The open handle's file is gone from the namespace but its chunks
	// stay its own until Close.
	cutFile := need{held: 2*ExtentBytes + 4*pageBytes, tails: 4 * pageBytes, files: 2*ExtentBytes + 9000}
	pcCheck(t, fs, "after the crash", trimmed(kept), untrimmed(ExtentBytes+50), cutFile, untrimmed(2*ExtentBytes))
	closeFile(severed)
	pcCheck(t, fs, "after the severed handle closed", trimmed(kept), untrimmed(ExtentBytes+50), cutFile)
	// A reader closing each survivor trims the wal's extent to a
	// one-page piece and cut's piece to three pages, leaving kept as
	// it is. No three-page piece was free, so that takes a slab.
	for _, name := range []string{"kept", "wal", "cut"} {
		f, err := fs.Open(tl, name)
		if err != nil {
			t.Fatal(err)
		}
		closeFile(f)
	}
	pcCheck(t, fs, "after a reader closed each survivor", trimmed(kept), trimmed(ExtentBytes+50), trimmed(2*ExtentBytes+9000))
	if got := total(); got != before+slabBytes {
		t.Fatalf("the readers' trims moved held + free from %d to %d bytes, want one slab more", before, got)
	}
	before = total()

	for _, name := range []string{"kept", "wal", "cut"} {
		if err := fs.Remove(tl, name); err != nil {
			t.Fatal(err)
		}
	}
	fs.ForceCommit(tl)
	pcCheck(t, fs, "after the unlinks committed")
	if got := total(); got != before {
		t.Fatalf("held + free moved from %d to %d bytes", before, got)
	}
	// New files draw on the free lists instead of allocating: their
	// pieces are of sizes the lists hold.
	closeFile(appendFile(t, fs, tl, "reuse", 4*ExtentBytes+100, 4<<10))
	closeFile(appendFile(t, fs, tl, "reuse-2", 3*ExtentBytes+14000, 4<<10))
	if got := total(); got != before {
		t.Errorf("rewriting two files grew held + free from %d to %d bytes", before, got)
	}
	pcCheck(t, fs, "after the rewrites", trimmed(4*ExtentBytes+100), trimmed(3*ExtentBytes+14000))
}

// TestTrimWaitsForLastHandle: a reader still open when the writer
// closes keeps the file's last extent whole, so a view it took of the
// extent stays the file's bytes; the reader's Close trims it, and a
// later reader's Open and Close of the trimmed file change nothing.
func TestTrimWaitsForLastHandle(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	const size = ExtentBytes + 5000
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	w, err := fs.Create(tl, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(tl, data); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(tl, "t")
	if err != nil {
		t.Fatal(err)
	}
	view, ok, err := r.ReadView(tl, 1000, ExtentBytes+4000)
	if err != nil || !ok {
		t.Fatalf("no view of the last extent: ok=%v err=%v", ok, err)
	}
	if err := w.Close(tl); err != nil {
		t.Fatal(err)
	}
	pcCheck(t, fs, "with the reader open", untrimmed(size))
	// Another file's trim takes a two-page piece, the size this one's
	// would be: it must not be carved from the extent the view reads.
	if err := fs.WriteFile(tl, "u", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, data[ExtentBytes+4000:ExtentBytes+5000]) {
		t.Error("the view of the last extent changed")
	}
	if err := r.Close(tl); err != nil {
		t.Fatal(err)
	}
	pcCheck(t, fs, "after the reader closed", trimmed(size), trimmed(5000))
	r, err = fs.Open(tl, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if n, err := r.ReadAt(tl, got, 0); n != size || err != nil {
		t.Fatalf("ReadAt: %d bytes, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Error("the trimmed file reads back other bytes")
	}
	if err := r.Close(tl); err != nil {
		t.Fatal(err)
	}
	pcCheck(t, fs, "after a second reader", trimmed(size), trimmed(5000))
}

// TestPageCacheGauges: the filesystem publishes chunk bytes held by
// inodes, chunk bytes on the free lists, file bytes and the held bytes
// in tail pieces, each beside its high-water mark.
func TestPageCacheGauges(t *testing.T) {
	reg := obs.NewRegistry()
	fs := NewObserved(DefaultConfig(), ssd.New(ssd.PM883()), reg, nil)
	tl := vclock.NewTimeline(0)
	expect := func(when string, want map[string]int64) {
		t.Helper()
		g := reg.Snapshot().Gauges
		for name, v := range want {
			if g[name] != v {
				t.Errorf("%s: %s = %d, want %d", when, name, g[name], v)
			}
		}
	}
	const size = 2*ExtentBytes + 1
	f := appendFile(t, fs, tl, "a", size, 4<<10)
	expect("written", map[string]int64{
		"ext4.page_cache_bytes": 3 * ExtentBytes, "ext4.page_cache_bytes_peak": 3 * ExtentBytes,
		"ext4.page_cache_free_bytes": slabBytes - 3*ExtentBytes, "ext4.page_cache_free_bytes_peak": slabBytes,
		"ext4.page_cache_tail_bytes": 0, "ext4.page_cache_tail_bytes_peak": 0,
		"ext4.file_bytes": size, "ext4.file_bytes_peak": size,
	})
	if err := f.Close(tl); err != nil {
		t.Fatal(err)
	}
	// The last extent held one byte: it moved into a one-page piece,
	// carved from a second slab, and went back to the whole-extent
	// list. The peak counts the piece beside the extent it replaced.
	expect("closed", map[string]int64{
		"ext4.page_cache_bytes": 2*ExtentBytes + pageBytes, "ext4.page_cache_bytes_peak": 3*ExtentBytes + pageBytes,
		"ext4.page_cache_free_bytes": 2*slabBytes - 2*ExtentBytes - pageBytes, "ext4.page_cache_free_bytes_peak": 2*slabBytes - 2*ExtentBytes - pageBytes,
		"ext4.page_cache_tail_bytes": pageBytes, "ext4.page_cache_tail_bytes_peak": pageBytes,
		"ext4.file_bytes": size, "ext4.file_bytes_peak": size,
	})
	if err := fs.Remove(tl, "a"); err != nil {
		t.Fatal(err)
	}
	fs.ForceCommit(tl)
	expect("unlinked", map[string]int64{
		"ext4.page_cache_bytes": 0, "ext4.page_cache_bytes_peak": 3*ExtentBytes + pageBytes,
		"ext4.page_cache_free_bytes": 2 * slabBytes, "ext4.page_cache_free_bytes_peak": 2 * slabBytes,
		"ext4.page_cache_tail_bytes": 0, "ext4.page_cache_tail_bytes_peak": pageBytes,
		"ext4.file_bytes": 0, "ext4.file_bytes_peak": size,
	})
	if err := fs.WriteFile(tl, "b", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	expect("rewritten", map[string]int64{
		"ext4.page_cache_bytes": pageBytes, "ext4.page_cache_bytes_peak": 3*ExtentBytes + pageBytes,
		"ext4.page_cache_free_bytes": 2*slabBytes - pageBytes, "ext4.page_cache_free_bytes_peak": 2 * slabBytes,
		"ext4.page_cache_tail_bytes": pageBytes, "ext4.page_cache_tail_bytes_peak": pageBytes,
		"ext4.file_bytes": 10, "ext4.file_bytes_peak": size,
	})
}

// BenchmarkAppendView is the page cache's layer benchmark. Its
// append-view case is a 4 KiB append, as a table builder writes a
// block, then a zero-copy view of it, as a compaction reads one back;
// every 16 MiB the file is unlinked and a new one started, so its
// chunks come back through the free list. Its close-100KiB case writes
// a 100 KiB file in 4 KiB appends and closes it, which trims its last
// extent to a one-page tail piece: per op, one closed file. Every 160
// files the names are reused, and the commit of their unlinks returns
// the chunks.
func BenchmarkAppendView(b *testing.B) {
	block := make([]byte, 4<<10)
	b.Run("append-view", func(b *testing.B) {
		fs := newTestFS()
		tl := vclock.NewTimeline(0)
		const fileBytes = 16 << 20
		var f vfs.File
		var off int64
		b.SetBytes(int64(len(block)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if f == nil || off == fileBytes {
				if f != nil {
					if err := f.Close(tl); err != nil {
						b.Fatal(err)
					}
					if err := fs.Remove(tl, "t"); err != nil {
						b.Fatal(err)
					}
					fs.ForceCommit(tl)
				}
				var err error
				if f, err = fs.Create(tl, "t"); err != nil {
					b.Fatal(err)
				}
				off = 0
			}
			if err := f.Append(tl, block); err != nil {
				b.Fatal(err)
			}
			if _, ok, err := f.ReadView(tl, len(block), off); !ok || err != nil {
				b.Fatalf("no view of the block at %d: %v", off, err)
			}
			off += int64(len(block))
		}
	})
	b.Run("close-100KiB", func(b *testing.B) {
		fs := newTestFS()
		tl := vclock.NewTimeline(0)
		const fileBytes, files = 100 << 10, 160
		var names [files]string
		for i := range names {
			names[i] = fmt.Sprintf("%03d.ldb", i)
		}
		b.SetBytes(fileBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%files == 0 && i > 0 {
				fs.ForceCommit(tl)
			}
			f, err := fs.Create(tl, names[i%files])
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < fileBytes; off += len(block) {
				if err := f.Append(tl, block); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.Close(tl); err != nil {
				b.Fatal(err)
			}
		}
	})
}
