package ext4

import (
	"runtime"
	"sync"
)

// Where the page cache's memory comes from.
//
// Chunks are carved from slabs of slabBytes, and slabs come from
// newSlab: anonymous memory mapped outside the Go heap on unix builds
// (slab_mmap.go), an ordinary heap allocation on race and non-unix
// builds (slab_heap.go), so the race detector still sees the bytes
// the lock-free resident ReadAt copies. Off the heap, the simulated
// disk — every live file, every shadow table and every free chunk — is
// no longer live heap that the collector lets grow by GOGC before each
// cycle: the headroom covers the store's own objects only.
//
// Nothing is ever unmapped. A filesystem's slabs pass to the process
// when the filesystem becomes unreachable, and the next filesystem
// draws on them before mapping more, so a process that mounts one
// store after another holds at most the slabs of the ones alive at
// once. A stale view of a recycled chunk reads another file's bytes,
// as a view of a chunk the filesystem's own free list handed on
// already would; it never faults.

// slabBytes is the unit the page cache takes memory in.
const slabBytes = slabChunks * ExtentBytes

type slab [slabBytes]byte

// spare holds the slabs of filesystems that are gone, for the next
// filesystem to draw on, and counts every slab the process made.
var spare struct {
	mu    sync.Mutex
	slabs []*slab
	made  int64
}

// slabSet is the sentinel that hands a filesystem's slabs to spare:
// only the filesystem's pageCache points to it, so its finalizer runs
// once the filesystem is unreachable. The finalizer cannot sit on FS
// itself, which CrashFS's commit hook closes a cycle through, and a
// finalizer on an object in a cycle never runs.
type slabSet struct {
	slabs []*slab
}

func newSlabSet() *slabSet {
	s := new(slabSet)
	runtime.SetFinalizer(s, func(s *slabSet) {
		spare.mu.Lock()
		spare.slabs = append(spare.slabs, s.slabs...)
		spare.mu.Unlock()
	})
	return s
}

// take adds a slab to s: a spare one when there is one, else a new one.
func (s *slabSet) take() *slab {
	spare.mu.Lock()
	var sl *slab
	if n := len(spare.slabs); n > 0 {
		sl = spare.slabs[n-1]
		spare.slabs[n-1] = nil
		spare.slabs = spare.slabs[:n-1]
	} else {
		sl = newSlab()
		spare.made++
	}
	spare.mu.Unlock()
	s.slabs = append(s.slabs, sl)
	return sl
}

// Slabs reports the page-cache memory of the whole process: every slab
// its filesystems ever took, and the part of it no live filesystem
// holds. Off the heap unless OffHeap is false.
func Slabs() (total, free int64) {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	return spare.made * slabBytes, int64(len(spare.slabs)) * slabBytes
}
