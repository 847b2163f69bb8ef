package sstable

import (
	"fmt"

	"noblsm/internal/compress"
	"noblsm/internal/vclock"
)

// Compression selects the per-block codec for newly built blocks. The
// chosen codec is recorded per block in the trailer's first byte (the
// format slot LevelDB uses for the same purpose), so a table may mix
// compressed and raw blocks and readers need no table-level state:
// incompressible blocks are stored raw under codec tag 0, and every
// pre-compression table reads back unchanged.
type Compression int

const (
	// NoCompression stores blocks raw (codec tag 0) — the default,
	// and the only codec the paper-figure variants use.
	NoCompression Compression = iota
	// FastCompression encodes with compress.LevelFast (codec tag 1):
	// the hot-level choice, cheap enough for flushes.
	FastCompression
	// MaxCompression encodes with compress.LevelMax (codec tag 2):
	// denser and slower, meant for cold bottom levels whose blocks
	// are written once per major compaction and read many times.
	MaxCompression
)

func (c Compression) String() string {
	switch c {
	case NoCompression:
		return "none"
	case FastCompression:
		return "fast"
	case MaxCompression:
		return "max"
	}
	return fmt.Sprintf("Compression(%d)", int(c))
}

// The codec's model charges: the throughputs at which the virtual-time
// cost model bills encode and decode work. They are model constants,
// not measurements of internal/compress — its Benchmark* functions
// measure the host's own throughput, which these do not follow. Per-byte
// costs divide by Options.CodecCostDiv (the harness data-scale) exactly
// like device bytes do, while per-request overheads stay unscaled — see
// DESIGN.md §10.
const (
	encodeFastBytesPerSec = 350 << 20
	encodeMaxBytesPerSec  = 120 << 20
	decodeBytesPerSec     = 1200 << 20
)

// codecCost converts n bytes at a model bandwidth into scaled virtual
// CPU time.
func codecCost(n int, bytesPerSec int64, div int64) vclock.Duration {
	if n <= 0 {
		return 0
	}
	if div < 1 {
		div = 1
	}
	return vclock.Duration(int64(n) * int64(vclock.Second) / (bytesPerSec * div))
}

// BuildScratch holds buffers a sequence of Builders reuses: one
// compaction (or flush) builds many tables back to back on one
// goroutine, and per-table allocations of the filter, its key hashes
// and the encoder destination dominated the builder's allocation
// profile. It serves one Builder or Assembler at a time, from its
// constructor to Finish (the hash slice is on loan in between), and is
// not safe for concurrent use — each flush or compaction output owns
// its own; a compaction's seal goroutines encode into their blocks'
// own buffers.
type BuildScratch struct {
	filter []byte
	hashes []uint32
	enc    []byte
}

// Encodes reports whether c runs the codec on the blocks it stores.
func (c Compression) Encodes() bool {
	_, ok := c.level()
	return ok
}

// level is the codec level c encodes with, if c compresses.
func (c Compression) level() (compress.Level, bool) {
	switch c {
	case FastCompression:
		return compress.LevelFast, true
	case MaxCompression:
		return compress.LevelMax, true
	}
	return 0, false
}

// encodeBandwidth is the model encode throughput the cost model charges
// c's encodes at, if c compresses.
func (c Compression) encodeBandwidth() (int64, bool) {
	switch c {
	case FastCompression:
		return encodeFastBytesPerSec, true
	case MaxCompression:
		return encodeMaxBytesPerSec, true
	}
	return 0, false
}

// decode expands a CRC-verified block payload per its codec tag. dst
// is an optional reuse buffer for the decoded bytes, taken when the
// block fits its capacity — the codec reads the declared length, so no
// caller parses the header to size one; tag 0 returns payload itself.
func decode(dst, payload []byte, codec byte) ([]byte, error) {
	switch Compression(codec) {
	case NoCompression:
		return payload, nil
	case FastCompression, MaxCompression:
		dec, err := compress.Decode(dst, payload)
		if err != nil {
			return nil, codecError(err)
		}
		return dec, nil
	}
	return nil, fmt.Errorf("%w: unknown block codec %d", ErrCorrupt, codec)
}

// codecError is a codec failure as the table reports it.
func codecError(err error) error { return fmt.Errorf("%w: %v", ErrCorrupt, err) }

// decodePayload is decode plus its virtual CPU charge.
func (r *Reader) decodePayload(tl *vclock.Timeline, payload []byte, codec byte, dst []byte) ([]byte, error) {
	dec, err := decode(dst, payload, codec)
	if err == nil && codec != 0 {
		tl.Advance(codecCost(len(dec), decodeBytesPerSec, r.codecDiv))
	}
	return dec, err
}
