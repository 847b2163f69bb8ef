//go:build race || !unix

package ext4

// OffHeap reports whether page-cache slabs live outside the Go heap.
// Race builds keep them on it, where the race detector sees the bytes
// the lock-free resident ReadAt reads; non-unix builds have no mmap.
const OffHeap = false

// newSlab allocates a slab on the Go heap.
func newSlab() *slab { return new(slab) }
