package ext4

import (
	"fmt"
	"math/rand"
	"testing"

	"noblsm/internal/obs"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// chunkBytes is what a file of n bytes holds in whole extents.
func chunkBytes(n int64) int64 { return (n + ExtentBytes - 1) / ExtentBytes * ExtentBytes }

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
// records and a few tiny files — may hold at most 10 % more chunk bytes
// than file bytes. 256 KiB extents would hold ~37 % more.
func TestPageCacheHoldsWhatWasWritten(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	r := rand.New(rand.NewSource(1))
	var want int64
	add := func(f vfs.File) {
		want += f.Size()
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
	t.Logf("%d chunk bytes held for %d file bytes (+%.1f %%) at %d KiB extents",
		held, files, 100*float64(held-files)/float64(files), ExtentBytes>>10)
	if held*100 > files*110 {
		t.Errorf("the page cache holds %d bytes for %d bytes of files: more than 10 %% slack", held, files)
	}
}

// TestCrashAndReleaseLoseNoChunk: every chunk a file gives up — its
// cut tail at a crash, the whole file when a crash erases it, when its
// unlink commits or when its last handle closes after either — goes
// to the filesystem's free list, so chunk bytes held plus chunk bytes
// free never shrink, and what inodes hold is exactly what the files
// left need.
func TestCrashAndReleaseLoseNoChunk(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	total := func() int64 { return fs.pc.held.n + fs.pc.idle.n }
	check := func(when string, sizes ...int64) {
		t.Helper()
		var held, files int64
		for _, n := range sizes {
			held += chunkBytes(n)
			files += n
		}
		if fs.pc.held.n != held || fs.pc.files.n != files {
			t.Errorf("%s: %d chunk bytes held for %d file bytes, want %d for %d",
				when, fs.pc.held.n, fs.pc.files.n, held, files)
		}
		if int64(len(fs.pc.free))*ExtentBytes != fs.pc.idle.n {
			t.Errorf("%s: %d chunks free, counted as %d bytes", when, len(fs.pc.free), fs.pc.idle.n)
		}
	}

	const kept, tail = 3*ExtentBytes + 100, 2*ExtentBytes + 7
	closeFile := func(f vfs.File) {
		if err := f.Close(tl); err != nil {
			t.Fatal(err)
		}
	}
	closeFile(appendFile(t, fs, tl, "kept", kept, 4<<10))
	wal := appendFile(t, fs, tl, "wal", ExtentBytes+50, 1<<10)
	fs.ForceCommit(tl)
	if err := wal.Append(tl, make([]byte, tail)); err != nil {
		t.Fatal(err)
	}
	closeFile(wal)
	closeFile(appendFile(t, fs, tl, "erased", 5*ExtentBytes, 4<<10))
	severed := appendFile(t, fs, tl, "erased-open", 2*ExtentBytes, 4<<10)
	check("before the crash", kept, ExtentBytes+50+tail, 5*ExtentBytes, 2*ExtentBytes)
	before := total()

	fs.Crash(tl.Now())
	if got := total(); got != before {
		t.Fatalf("the crash changed held + free from %d to %d bytes", before, got)
	}
	// The open handle's file is gone from the namespace but its chunks
	// stay its own until Close.
	check("after the crash", kept, ExtentBytes+50, 2*ExtentBytes)
	closeFile(severed)
	check("after the severed handle closed", kept, ExtentBytes+50)

	for _, name := range []string{"kept", "wal"} {
		if err := fs.Remove(tl, name); err != nil {
			t.Fatal(err)
		}
	}
	fs.ForceCommit(tl)
	check("after the unlinks committed")
	if got := total(); got != before {
		t.Fatalf("held + free moved from %d to %d bytes", before, got)
	}
	// A new file draws on the free list instead of allocating.
	closeFile(appendFile(t, fs, tl, "reuse", 4*ExtentBytes, 4<<10))
	if got := total(); got != before {
		t.Errorf("rewriting %d bytes grew held + free from %d to %d bytes", 4*ExtentBytes, before, got)
	}
}

// TestPageCacheGauges: the filesystem publishes chunk bytes held by
// inodes, chunk bytes on the free list and file bytes, each beside its
// high-water mark.
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
	if err := f.Close(tl); err != nil {
		t.Fatal(err)
	}
	// The first chunk carved a slab; the rest of it waits on the free
	// list.
	expect("written", map[string]int64{
		"ext4.page_cache_bytes": 3 * ExtentBytes, "ext4.page_cache_bytes_peak": 3 * ExtentBytes,
		"ext4.page_cache_free_bytes": (slabChunks - 3) * ExtentBytes, "ext4.page_cache_free_bytes_peak": slabChunks * ExtentBytes,
		"ext4.file_bytes": size, "ext4.file_bytes_peak": size,
	})
	if err := fs.Remove(tl, "a"); err != nil {
		t.Fatal(err)
	}
	fs.ForceCommit(tl)
	expect("unlinked", map[string]int64{
		"ext4.page_cache_bytes": 0, "ext4.page_cache_bytes_peak": 3 * ExtentBytes,
		"ext4.page_cache_free_bytes": slabChunks * ExtentBytes, "ext4.page_cache_free_bytes_peak": slabChunks * ExtentBytes,
		"ext4.file_bytes": 0, "ext4.file_bytes_peak": size,
	})
	if err := fs.WriteFile(tl, "b", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	expect("rewritten", map[string]int64{
		"ext4.page_cache_bytes": ExtentBytes, "ext4.page_cache_bytes_peak": 3 * ExtentBytes,
		"ext4.page_cache_free_bytes": (slabChunks - 1) * ExtentBytes, "ext4.page_cache_free_bytes_peak": slabChunks * ExtentBytes,
		"ext4.file_bytes": 10, "ext4.file_bytes_peak": size,
	})
}

// BenchmarkAppendView is the page cache's layer benchmark: a 4 KiB
// append, as a table builder writes a block, then a zero-copy view of
// it, as a compaction reads one back. Every 16 MiB the file is
// unlinked and a new one started, so its chunks come back through the
// free list.
func BenchmarkAppendView(b *testing.B) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	block := make([]byte, 4<<10)
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
}
