package ext4

import (
	"runtime"
	"testing"
	"time"

	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// slabsOf lists the slabs fs has taken.
func slabsOf(fs *FS) []*slab {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]*slab(nil), fs.pc.slabs.slabs...)
}

// spareState returns the process's spare slabs and how many it made.
func spareState() (map[*slab]bool, int64) {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	set := make(map[*slab]bool, len(spare.slabs))
	for _, sl := range spare.slabs {
		set[sl] = true
	}
	return set, spare.made
}

// fillSlabs mounts a filesystem and writes n slabs' worth of file
// into it, a 4 KiB block at a time.
func fillSlabs(t *testing.T, n int) *FS {
	t.Helper()
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	if err := appendFile(t, fs, tl, "t", n*slabBytes, 4<<10).Close(tl); err != nil {
		t.Fatal(err)
	}
	return fs
}

// abandonedSlabs mounts and fills a filesystem under a CrashFS, as the
// harness stacks it (which closes a cycle through the commit hook),
// checks that collections while it is alive leave its slabs alone, and
// drops it, returning the slabs it held.
func abandonedSlabs(t *testing.T, n int) []*slab {
	t.Helper()
	fs := fillSlabs(t, n)
	_, crash := vfs.NewCrashFS(fs)
	mine := slabsOf(fs)
	if len(mine) != n {
		t.Fatalf("%d slabs' worth of file took %d slabs", n, len(mine))
	}
	runtime.GC()
	runtime.GC()
	free, _ := spareState()
	for _, sl := range mine {
		if free[sl] {
			t.Fatal("a live filesystem's slab is on the spare list")
		}
	}
	runtime.KeepAlive(crash)
	return mine
}

// TestSlabLifecycle pins how page-cache slabs move between
// filesystems: a filesystem's slabs reach the process's spare list
// only once it is unreachable, the next filesystem draws on them
// before mapping new ones, and no slab is held by two live
// filesystems. It holds in the mmap build and in the race and non-unix
// heap build alike.
func TestSlabLifecycle(t *testing.T) {
	const n = 3
	mine := abandonedSlabs(t, n)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		free, _ := spareState()
		left := 0
		for _, sl := range mine {
			if !free[sl] {
				left++
			}
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slabs of an unreachable filesystem never reached the spare list", left, n)
		}
		time.Sleep(time.Millisecond)
	}

	// The spare list holds at least n slabs now and only grows until a
	// filesystem takes one, so the next n slabs taken map nothing.
	_, made := spareState()
	b := fillSlabs(t, n)
	if _, after := spareState(); after != made {
		t.Errorf("the next filesystem mapped %d new slabs beside %d spare ones", after-made, n)
	}

	c := fillSlabs(t, n)
	free, _ := spareState()
	held := make(map[*slab]bool)
	for _, fs := range []*FS{b, c} {
		for _, sl := range slabsOf(fs) {
			if held[sl] {
				t.Fatal("two live filesystems hold the same slab")
			}
			if free[sl] {
				t.Fatal("a live filesystem's slab is on the spare list")
			}
			held[sl] = true
		}
	}
	if len(held) != 2*n {
		t.Errorf("two filesystems of %d slabs' worth hold %d slabs, want %d", n, len(held), 2*n)
	}
	runtime.KeepAlive(b)
	runtime.KeepAlive(c)
}
