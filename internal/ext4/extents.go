package ext4

import "noblsm/internal/obs"

// ExtentBytes is the allocation unit for file contents. Chunked
// storage keeps Append O(len(p)): a contiguous []byte would re-copy
// the whole file every time the runtime grows the slice, which
// dominated real-time profiles of compaction-heavy workloads (the
// simulated disk holds every sstable in memory).
//
// The size trades two host costs: a file's last chunk is on average
// half empty, so larger chunks hold more memory per file, and a read
// that crosses a chunk boundary cannot be served as one zero-copy
// view, so smaller chunks send about one 4 KiB block in
// ExtentBytes/4 KiB down the copy path. DESIGN.md §5.3 has the
// 16/32/64 KiB sweep that chose 32 KiB.
const ExtentBytes = 32 << 10

// pageCache is one filesystem's store of extent chunks: the chunks
// its inodes hold and a free list of chunks whose files are gone. An
// LSM workload churns files constantly — every obsolete SSTable and
// rotated WAL frees its page cache — and without recycling that alone
// accounted for ~40% of all allocation in write benchmarks. A free
// list the filesystem owns survives garbage collections, which empty
// a sync.Pool every cycle. Its slabs come from, and outlive it in,
// the process's spare list (slab.go). Every method requires fs.mu.
type pageCache struct {
	slabs *slabSet
	free  []*[ExtentBytes]byte
	// held and idle count the chunk bytes inodes hold and the free
	// list holds; files counts the file bytes stored in the held ones.
	held, idle, files meter
}

func newPageCache(r *obs.Registry) pageCache {
	return pageCache{
		slabs: newSlabSet(),
		held:  newMeter(r, "ext4.page_cache_bytes"),
		idle:  newMeter(r, "ext4.page_cache_free_bytes"),
		files: newMeter(r, "ext4.file_bytes"),
	}
}

// slabChunks is how many chunks the free list is refilled with at a
// time, from one slab. The free list never gives memory back, so
// nothing is lost by carving, and the kernel or the collector sees
// one mapping or object per 256 KiB rather than one per chunk.
const slabChunks = (256 << 10) / ExtentBytes

// get returns an empty chunk with capacity ExtentBytes. Contents
// beyond len are garbage from a previous life; extents only ever reads
// below len, so that garbage is unobservable.
func (pc *pageCache) get() []byte {
	if len(pc.free) == 0 {
		sl := pc.slabs.take()
		for off := slabBytes - ExtentBytes; off >= 0; off -= ExtentBytes {
			pc.free = append(pc.free, (*[ExtentBytes]byte)(sl[off:]))
		}
		pc.idle.add(slabChunks * ExtentBytes)
	}
	pc.held.add(ExtentBytes)
	n := len(pc.free)
	c := pc.free[n-1]
	pc.free[n-1] = nil
	pc.free = pc.free[:n-1]
	pc.idle.add(-ExtentBytes)
	return c[:0]
}

// put recycles c. Callers must guarantee no reader can still observe
// c (extents.ReadAt copies out; views and the lock-free ReadAt path
// are valid only while a handle is open, and inode data is recycled
// only once unreachable by handles).
func (pc *pageCache) put(c []byte) {
	pc.held.add(-ExtentBytes)
	pc.idle.add(ExtentBytes)
	pc.free = append(pc.free, (*[ExtentBytes]byte)(c[:ExtentBytes]))
}

// meter is a byte count kept under fs.mu and published as a registry
// gauge beside its high-water mark (name + "_peak").
type meter struct {
	n         int64
	cur, peak *obs.Gauge
}

func newMeter(r *obs.Registry, name string) meter {
	return meter{cur: r.Gauge(name), peak: r.Gauge(name + "_peak")}
}

func (m *meter) add(d int64) {
	m.n += d
	m.cur.Set(m.n)
	if m.n > m.peak.Value() {
		m.peak.Set(m.n)
	}
}

// extents stores a file's contents as fixed-size chunks drawn from the
// filesystem's pageCache. Every chunk except the last is exactly
// ExtentBytes long.
type extents struct {
	chunks [][]byte
	size   int64
}

// Len returns the file size in bytes.
func (e *extents) Len() int64 { return e.size }

// Append adds p at the end of the file.
func (e *extents) Append(pc *pageCache, p []byte) {
	pc.files.add(int64(len(p)))
	for len(p) > 0 {
		if len(e.chunks) == 0 || len(e.chunks[len(e.chunks)-1]) == ExtentBytes {
			e.chunks = append(e.chunks, pc.get())
		}
		tail := e.chunks[len(e.chunks)-1]
		n := ExtentBytes - len(tail)
		if n > len(p) {
			n = len(p)
		}
		e.chunks[len(e.chunks)-1] = append(tail, p[:n]...)
		p = p[n:]
		e.size += int64(n)
	}
}

// ReadAt copies up to len(p) bytes starting at off into p and reports
// how many were copied (0 at or past EOF; callers bound off).
func (e *extents) ReadAt(p []byte, off int64) int {
	n := 0
	for n < len(p) && off < e.size {
		c := e.chunks[off/ExtentBytes]
		m := copy(p[n:], c[off%ExtentBytes:])
		n += m
		off += int64(m)
	}
	return n
}

// readAtChunks copies like ReadAt from a chunk-table snapshot taken
// under the filesystem lock, for lock-free reads of resident data:
// chunks other than the last are immutable once full, and tail is the
// captured header of the last in-range chunk (the one element a
// concurrent Append rewrites). p must be bounded to the snapshot size.
func readAtChunks(chunks [][]byte, tail []byte, p []byte, off int64) {
	n := 0
	last := len(chunks) - 1
	for n < len(p) {
		i := int(off / ExtentBytes)
		// chunks[last] is the element a concurrent Append rewrites:
		// never load it, not even to discard it.
		c := tail
		if i != last {
			c = chunks[i]
		}
		m := copy(p[n:], c[off%ExtentBytes:])
		n += m
		off += int64(m)
	}
}

// Truncate discards contents beyond size (no-op when size >= Len),
// returning the chunks it empties to pc.
func (e *extents) Truncate(pc *pageCache, size int64) {
	if size < 0 {
		size = 0
	}
	if size >= e.size {
		return
	}
	pc.files.add(size - e.size)
	keep := int((size + ExtentBytes - 1) / ExtentBytes)
	for i := keep; i < len(e.chunks); i++ {
		pc.put(e.chunks[i])
		e.chunks[i] = nil
	}
	e.chunks = e.chunks[:keep]
	if keep > 0 {
		e.chunks[keep-1] = e.chunks[keep-1][:size-int64(keep-1)*ExtentBytes]
	}
	e.size = size
}

// Release returns every chunk to pc. Only valid once no reader can
// reach the file again (its unlink has committed, or a crash dropped
// it, and no handle is open).
func (e *extents) Release(pc *pageCache) { e.Truncate(pc, 0) }
