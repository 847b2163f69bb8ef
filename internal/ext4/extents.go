package ext4

import "sync"

// extentBytes is the allocation unit for file contents. Chunked
// storage keeps Append O(len(p)): a contiguous []byte would re-copy
// the whole file every time the runtime grows the slice, which
// dominated real-time profiles of compaction-heavy workloads (the
// simulated disk holds every sstable in memory).
const extentBytes = 256 << 10

// chunkPool recycles extent chunks between files. An LSM workload
// churns files constantly — every obsolete SSTable and rotated WAL
// frees its page cache — and without recycling that alone accounted
// for ~40% of all allocation in write benchmarks. Chunks are pooled as
// array pointers so Put/Get do not allocate slice headers.
var chunkPool = sync.Pool{New: func() any { return new([extentBytes]byte) }}

// getChunk returns an empty chunk with capacity extentBytes. Contents
// beyond len are garbage from a previous life; extents only ever reads
// below len, so that garbage is unobservable.
func getChunk() []byte { return chunkPool.Get().(*[extentBytes]byte)[:0] }

// putChunk recycles c. Callers must guarantee no reader can still
// observe c (extents.ReadAt copies out, so chunks have no external
// aliases; inode data is recycled only once unreachable by handles).
func putChunk(c []byte) {
	if cap(c) != extentBytes {
		return
	}
	chunkPool.Put((*[extentBytes]byte)(c[:extentBytes]))
}

// extents stores a file's contents as fixed-size chunks. Every chunk
// except the last is exactly extentBytes long.
type extents struct {
	chunks [][]byte
	size   int64
}

// Len returns the file size in bytes.
func (e *extents) Len() int64 { return e.size }

// Append adds p at the end of the file.
func (e *extents) Append(p []byte) {
	for len(p) > 0 {
		if len(e.chunks) == 0 || len(e.chunks[len(e.chunks)-1]) == extentBytes {
			e.chunks = append(e.chunks, getChunk())
		}
		tail := e.chunks[len(e.chunks)-1]
		n := extentBytes - len(tail)
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
		c := e.chunks[off/extentBytes]
		m := copy(p[n:], c[off%extentBytes:])
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
		i := int(off / extentBytes)
		// chunks[last] is the element a concurrent Append rewrites:
		// never load it, not even to discard it.
		c := tail
		if i != last {
			c = chunks[i]
		}
		m := copy(p[n:], c[off%extentBytes:])
		n += m
		off += int64(m)
	}
}

// Truncate discards contents beyond size (no-op when size >= Len).
func (e *extents) Truncate(size int64) {
	if size < 0 {
		size = 0
	}
	if size >= e.size {
		return
	}
	keep := int((size + extentBytes - 1) / extentBytes)
	for i := keep; i < len(e.chunks); i++ {
		putChunk(e.chunks[i])
		e.chunks[i] = nil
	}
	e.chunks = e.chunks[:keep]
	if keep > 0 {
		e.chunks[keep-1] = e.chunks[keep-1][:size-int64(keep-1)*extentBytes]
	}
	e.size = size
}

// Release recycles every chunk. Only valid once no reader can reach
// the file again (its unlink has committed and no handle is open).
func (e *extents) Release() {
	for i := range e.chunks {
		putChunk(e.chunks[i])
		e.chunks[i] = nil
	}
	e.chunks = e.chunks[:0]
	e.size = 0
}
