package ext4

import "noblsm/internal/obs"

// ExtentBytes is the allocation unit for file contents. Chunked
// storage keeps Append O(len(p)): a contiguous []byte would re-copy
// the whole file every time the runtime grows the slice, which
// dominated real-time profiles of compaction-heavy workloads (the
// simulated disk holds every sstable in memory).
//
// The size trades two host costs: a file being written leaves its
// last chunk on average half empty, so larger chunks hold more memory
// per open file, and a read that crosses a chunk boundary cannot be
// served as one zero-copy view, so smaller chunks send about one
// 4 KiB block in ExtentBytes/4 KiB down the copy path. A closed file
// gives the empty part back: its last chunk moves into a tail piece
// of whole pages (extents.Trim). DESIGN.md §5.3 has the 16/32/64 KiB
// sweep that chose 32 KiB.
const ExtentBytes = 32 << 10

// extentPages is how many pages a whole extent chunk holds; a tail
// piece holds fewer.
const extentPages = ExtentBytes / pageBytes

// pageCache is one filesystem's store of extent chunks: the chunks
// its inodes hold and free lists of chunks whose files are gone. An
// LSM workload churns files constantly — every obsolete SSTable and
// rotated WAL frees its page cache — and without recycling that alone
// accounted for ~40% of all allocation in write benchmarks. Free
// lists the filesystem owns survive garbage collections, which empty
// a sync.Pool every cycle. Its slabs come from, and outlive it in,
// the process's spare list (slab.go). Every method requires fs.mu.
type pageCache struct {
	slabs *slabSet
	// free[k] holds the free chunks of k pages: whole extents at
	// k == extentPages, tail pieces below it. Each chunk's capacity is
	// exactly its size, which is how put finds its list.
	free [extentPages + 1][][]byte
	// held and idle count the chunk bytes inodes hold and the free
	// lists hold, each chunk by its capacity; files counts the file
	// bytes stored in the held ones, and tails the held bytes that are
	// tail pieces.
	held, idle, files, tails meter
	// ends counts the bytes at slab ends that no chunk of the slab's
	// size fits. idle includes them, though no list ever hands them
	// out.
	ends int64
}

func newPageCache(r *obs.Registry) pageCache {
	return pageCache{
		slabs: newSlabSet(),
		held:  newMeter(r, "ext4.page_cache_bytes"),
		idle:  newMeter(r, "ext4.page_cache_free_bytes"),
		files: newMeter(r, "ext4.file_bytes"),
		tails: newMeter(r, "ext4.page_cache_tail_bytes"),
	}
}

// slabChunks is how many whole extents one slab is carved into. The
// free lists never give memory back, so nothing is lost by carving,
// and the kernel or the collector sees one mapping or object per
// 256 KiB rather than one per chunk.
const slabChunks = (256 << 10) / ExtentBytes

// get returns an empty chunk of k pages, 1 <= k <= extentPages, whose
// capacity is exactly k pages. An empty list is refilled from one
// slab; a size that does not divide the slab leaves its end unused,
// and all of the slab counts as free, so held plus free still grows a
// slab at a time. Contents beyond len are garbage from a previous
// life; extents only ever reads below len, so that garbage is
// unobservable.
func (pc *pageCache) get(k int) []byte {
	size := k * pageBytes
	list := &pc.free[k]
	if len(*list) == 0 {
		sl := pc.slabs.take()
		for off := (slabBytes/size - 1) * size; off >= 0; off -= size {
			*list = append(*list, sl[off:off:off+size])
		}
		pc.idle.add(slabBytes)
		pc.ends += int64(slabBytes % size)
	}
	n := len(*list)
	c := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	pc.move(size, k)
	return c
}

// put recycles c. Callers must guarantee no reader can still observe
// c (extents.ReadAt copies out; views and the lock-free ReadAt path
// are valid only while a handle is open, and inode data is recycled
// only once unreachable by handles).
func (pc *pageCache) put(c []byte) {
	k := cap(c) / pageBytes
	pc.move(-cap(c), k)
	pc.free[k] = append(pc.free[k], c[:0])
}

// move shifts size bytes of k-page chunks from the free lists to the
// inodes (negative: back).
func (pc *pageCache) move(size, k int) {
	pc.held.add(int64(size))
	pc.idle.add(-int64(size))
	if k < extentPages {
		pc.tails.add(int64(size))
	}
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

// extents stores a file's contents as chunks drawn from the
// filesystem's pageCache. Every chunk except the last is a whole
// extent, exactly ExtentBytes long; the last is a whole extent or,
// once Trim has run, a tail piece of fewer pages. Chunk i starts at
// byte i*ExtentBytes either way, so offset arithmetic ignores pieces.
type extents struct {
	chunks [][]byte
	size   int64
}

// Len returns the file size in bytes.
func (e *extents) Len() int64 { return e.size }

// Append adds p at the end of the file. The file never ends in a
// tail piece: only Close trims, and only once no handle is left, and
// every writable handle comes from Create, which makes a new inode.
func (e *extents) Append(pc *pageCache, p []byte) {
	if last := len(e.chunks) - 1; last >= 0 && cap(e.chunks[last]) < ExtentBytes {
		panic("ext4: append to a file whose last extent was trimmed")
	}
	pc.files.add(int64(len(p)))
	for len(p) > 0 {
		if len(e.chunks) == 0 || len(e.chunks[len(e.chunks)-1]) == ExtentBytes {
			e.chunks = append(e.chunks, pc.get(extentPages))
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

// Trim moves a partly filled last chunk into a tail piece of the
// fewest whole pages that hold it, and returns the chunk to pc. Only
// valid while no handle is open, since a view or a lock-free read
// may alias the chunk.
func (e *extents) Trim(pc *pageCache) {
	last := len(e.chunks) - 1
	if last < 0 {
		return
	}
	c := e.chunks[last]
	k := int(pages(int64(len(c))))
	if k*pageBytes == cap(c) {
		return
	}
	e.chunks[last] = append(pc.get(k), c...)
	pc.put(c)
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
