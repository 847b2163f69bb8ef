// Package dbbench reproduces LevelDB's db_bench micro-benchmark
// workloads used in the paper's Section 5.2: fillseq, fillrandom
// (random writes), overwrite (random updates), readseq (sequential
// iteration) and readrandom (random point reads), with 16-byte keys
// and configurable value sizes.
package dbbench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Workload names.
const (
	FillSeq    = "fillseq"
	FillRandom = "fillrandom"
	Overwrite  = "overwrite"
	ReadSeq    = "readseq"
	ReadRandom = "readrandom"
)

// Workloads lists the four workloads of Figure 4 in paper order.
var Workloads = []string{FillRandom, Overwrite, ReadSeq, ReadRandom}

// Key renders db_bench's 16-byte key for an index. The common case is
// rendered by hand: fmt.Sprintf showed up at ~6% of CPU in wall-clock
// benchmark profiles.
func Key(i int64) []byte {
	if i < 0 || i >= 1e16 {
		return []byte(fmt.Sprintf("%016d", i))
	}
	b := make([]byte, 16)
	v := i
	for j := 15; j >= 0; j-- {
		b[j] = byte('0' + v%10)
		v /= 10
	}
	return b
}

// Generator yields the key sequence of one workload.
type Generator struct {
	workload string
	n        int64
	rnd      *rand.Rand
	i        int64
}

// NewGenerator returns a generator issuing n operations over a key
// space of n records, like db_bench's --num.
func NewGenerator(workload string, n int64, seed int64) *Generator {
	return &Generator{workload: workload, n: n, rnd: rand.New(rand.NewSource(seed))}
}

// Next returns the next key index, and done when n operations have
// been issued. readseq ignores the returned key (it iterates).
func (g *Generator) Next() (key int64, done bool) {
	if g.i >= g.n {
		return 0, true
	}
	g.i++
	switch g.workload {
	case FillSeq, ReadSeq:
		return g.i - 1, false
	default:
		// db_bench uses rand % num: duplicates and gaps are part of
		// the workload's character.
		return g.rnd.Int63n(g.n), false
	}
}

// Value produces a deterministic compressible-ish value of size bytes
// for a key index and round, cheap enough to sit on the measured path:
// runs of 1–7 equal letters, each stored as one 8-byte word while 8
// bytes of room remain (the next run's store overwrites the excess),
// the last few byte by byte.
func Value(dst []byte, key int64, round int, size int) []byte {
	if cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	dst = dst[:size]
	seed := uint64(key)*2654435761 + uint64(round)*97
	n := 0
	for n+8 <= size {
		seed = seed*6364136223846793005 + 1442695040888963407
		b := 'a' + (seed>>33)%26
		binary.LittleEndian.PutUint64(dst[n:], b*0x0101010101010101)
		n += int(seed>>56)%7 + 1
	}
	for n < size {
		seed = seed*6364136223846793005 + 1442695040888963407
		b := byte('a' + (seed>>33)%26)
		run := int(seed>>56)%7 + 1
		if run > size-n {
			run = size - n
		}
		for j := 0; j < run; j++ {
			dst[n+j] = b
		}
		n += run
	}
	return dst
}

// CompressibleValue produces a value that compresses to roughly half
// its size, the way db_bench's CompressibleString does for its default
// --compression_ratio=0.5: a deterministic half-size piece repeated to
// fill. The read benchmarks use it so compression-on runs measure the
// workload the paper's tooling measures; Value stays untouched because
// the figure harnesses' byte streams (and so their virtual timings)
// depend on it.
func CompressibleValue(dst []byte, key int64, round int, size int) []byte {
	half := size / 2
	if half < 1 {
		return Value(dst, key, round, size)
	}
	dst = Value(dst, key, round, half)
	dst = dst[:half]
	for len(dst) < size {
		n := size - len(dst)
		if n > half {
			n = half
		}
		dst = append(dst, dst[:n]...)
	}
	return dst
}
