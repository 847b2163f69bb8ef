package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// hostSample is the host-side state read at a phase boundary.
type hostSample struct {
	cpuNs    int64 // user+sys of the whole process, GC threads included
	mallocs  uint64
	allocB   uint64
	gcCPUSec float64
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who"; a zero sample then
	// shows up as zero CPU, not as a wrong number.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	h := hostSample{
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		allocB:  ms.TotalAlloc,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPUSec = s[0].Value.Float64()
	}
	return h
}

// heapInUse reads the live-heap size without stopping the world.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// peakRSSMB reads the process's resident high-water mark (VmHWM). It
// covers the whole process, so it includes the in-memory simulated
// disk of every rep so far.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[1]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// calibBuf is the calibration kernel's fixed input; calibWork and
// calibRaw are its scratch space, allocated once so the kernel itself
// never triggers a collection.
var (
	calibBuf = func() []uint32 {
		b := make([]uint32, 1<<18)
		x := uint32(2463534242)
		for i := range b {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			b[i] = x
		}
		return b
	}()
	calibWork = make([]uint32, len(calibBuf))
	calibRaw  = make([]byte, 4*len(calibBuf))
	calibSink uint32
)

// calibrate runs a fixed amount of CPU work (sort and CRC over a fixed
// buffer, about 25 ms) three times and returns the fastest: how fast
// the host can go right now. A single pass wobbles by ±15 % on a shared
// machine all by itself; the fastest of three does not. A rep whose
// calibrations before and after disagree ran on a host whose speed
// changed under it; calibNoisy names the threshold. A -quick run, which
// reports no host number anyone reads, makes one pass.
func calibrate(quick bool) time.Duration {
	passes := 3
	if quick {
		passes = 1
	}
	best := time.Duration(0)
	for pass := 0; pass < passes; pass++ {
		start := time.Now()
		copy(calibWork, calibBuf)
		slices.Sort(calibWork)
		for i, v := range calibWork {
			binary.LittleEndian.PutUint32(calibRaw[4*i:], v)
		}
		for i := 0; i < 16; i++ {
			calibSink ^= crc32.ChecksumIEEE(calibRaw)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// calibNoisy is the share by which a rep's two calibrations may differ
// before the rep is marked noisy and run again.
const calibNoisy = 0.15

// noisy judges a rep by its two calibrations, in ms.
func noisy(before, after float64) bool {
	lo, hi := min(before, after), max(before, after)
	return hi-lo > calibNoisy*lo
}
