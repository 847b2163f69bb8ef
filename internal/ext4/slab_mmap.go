//go:build unix && !race

package ext4

import (
	"fmt"
	"syscall"
)

// OffHeap reports whether page-cache slabs live outside the Go heap.
const OffHeap = true

// newSlab maps a slab of anonymous memory, which the kernel zeroes and
// the collector never scans or counts. A failed mapping means the
// process is out of memory, which ends the heap build too.
func newSlab() *slab {
	b, err := syscall.Mmap(-1, 0, slabBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("ext4: mapping a page-cache slab: %v", err))
	}
	return (*slab)(b)
}
