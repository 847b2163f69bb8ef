// Package sstable implements the on-disk sorted-table format, after
// LevelDB's:
//
//	[data block 1][trailer] ... [data block n][trailer]
//	[filter block][trailer]
//	[metaindex block][trailer]
//	[index block][trailer]
//	[footer]
//
// Each block trailer is a codec byte (0 = raw, else an
// internal/compress level; see Compression) plus a CRC-32C over the
// stored payload and the codec byte — so a torn or bit-rotted block,
// compressed or not, is detected on read before any decode is
// attempted, which the crash and fault tests rely on. The footer is
// fixed-size: the metaindex and index block handles, zero padding,
// and an 8-byte magic number.
//
// Unlike LevelDB's 2 KiB-interval filter block, the filter here is a
// single whole-table bloom filter (as RocksDB's full-filter mode),
// which preserves the behaviour that matters to the paper: point
// lookups skip tables that cannot contain the key.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"noblsm/internal/block"
	"noblsm/internal/bloom"
	"noblsm/internal/cache"
	"noblsm/internal/compress"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

const (
	blockTrailerLen = 5
	footerLen       = 48
	magic           = 0xdb4775248b80fb57
	filterName      = "filter.noblsm.bloom"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a damaged table image.
var ErrCorrupt = errors.New("sstable: corrupt table")

// Handle locates a block within the file.
type Handle struct {
	Offset, Size uint64
}

func (h Handle) encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, h.Offset)
	return binary.AppendUvarint(dst, h.Size)
}

func decodeHandle(p []byte) (Handle, int, error) {
	off, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return Handle{}, 0, fmt.Errorf("%w: bad handle", ErrCorrupt)
	}
	sz, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return Handle{}, 0, fmt.Errorf("%w: bad handle", ErrCorrupt)
	}
	return Handle{Offset: off, Size: sz}, n1 + n2, nil
}

// Options configure table building and reading.
type Options struct {
	// BlockSize is the uncompressed payload size threshold at which
	// a data block is cut (LevelDB default 4 KiB).
	BlockSize int
	// RestartInterval for data blocks (default 16).
	RestartInterval int
	// BloomBitsPerKey sizes the table filter; 0 disables filtering.
	BloomBitsPerKey int
	// Compression selects the per-block codec for built blocks
	// (default NoCompression). Reading is always tag-driven.
	Compression Compression
	// Scratch, when non-nil, lends the builder reusable filter and
	// encoder buffers across tables (one flush or compaction).
	Scratch *BuildScratch
	// CompressedCache, when non-nil, caches stored (still-compressed)
	// block payloads so warm blocks stay resident at the codec's
	// density and pay only decode — no device read — on a hit. The
	// uncompressed tier passed to Open sits above it.
	CompressedCache *cache.Cache
	// CodecCostDiv divides per-byte codec CPU charges, mirroring the
	// harness data-scale applied to device bytes (default 1).
	CodecCostDiv int64
}

// DefaultOptions mirror LevelDB's defaults with a 10-bit bloom filter.
func DefaultOptions() Options {
	return Options{BlockSize: 4096, RestartInterval: 16, BloomBitsPerKey: 10}
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.RestartInterval <= 0 {
		o.RestartInterval = 16
	}
	return o
}

// A table is built in three steps, each with its own type, so that a
// compaction can run them as stages on different goroutines while a
// flush runs them inline through Builder — one format path:
//
//   - a RawBlock takes sorted entries until the block-size rule says it
//     is full: the block cutter;
//   - Seal encodes and checksums a full RawBlock, pure work that takes
//     no timeline and touches no file: the sealer;
//   - an Assembler appends sealed blocks to the table file, charging
//     each block's encode as it goes, and owns everything that spans
//     blocks — index separators, filter, metaindex, footer and the
//     file's size, by which a compaction cuts tables.

// RawBlock is one data block on its way into a table.
type RawBlock struct {
	data        *block.Builder
	restart     int
	blockSize   int
	compression Compression
	bloom       bool
	first       []byte   // the block's first internal key
	hashes      []uint32 // bloom.Hash of every user key added

	// Set by Seal.
	stored []byte // payload, codec byte and CRC: what the file gets
	enc    []byte // the encoder's destination, reused block to block
	rawLen int    // the block image's length before any encoding

	// An adopted block (Iter.AdoptBlock) is an input table's stored
	// block taken over as it is: image, held until Reset, is what the
	// file gets, and first, last, hashes and entries describe it.
	// Nothing is added to it, and sealing it encodes nothing.
	image   Image
	last    []byte
	entries int
}

// NewRawBlock returns an empty block built to opts.
func NewRawBlock(opts Options) *RawBlock {
	b := new(RawBlock)
	b.Reset(opts)
	return b
}

// Reset empties b for a new block built to opts, keeping its buffers.
func (b *RawBlock) Reset(opts Options) {
	opts = opts.withDefaults()
	if b.data == nil || b.restart != opts.RestartInterval {
		b.data, b.restart = block.NewBuilder(opts.RestartInterval), opts.RestartInterval
	} else {
		b.data.Reset()
	}
	b.blockSize, b.compression, b.bloom = opts.BlockSize, opts.Compression, opts.BloomBitsPerKey > 0
	b.hashes, b.stored = b.hashes[:0], nil
	b.image.Release()
	b.image = Image{}
}

// Add appends an entry — internal keys strictly increasing — and
// reports whether the block is now full: its estimated size reached
// the block size (LevelDB's rule, and the only place a data block is
// cut by size).
func (b *RawBlock) Add(ikey, value []byte) bool {
	if b.data.Empty() {
		b.first = append(b.first[:0], ikey...)
	}
	if b.bloom {
		b.hashes = append(b.hashes, bloom.Hash(keys.UserKey(ikey)))
	}
	b.data.Add(ikey, value)
	return b.data.EstimatedSize() >= b.blockSize
}

// Empty reports whether nothing was added since the last Reset.
func (b *RawBlock) Empty() bool { return b.data.Empty() }

// Last returns the block's last internal key.
func (b *RawBlock) Last() []byte {
	if b.Adopted() {
		return b.last
	}
	return b.data.LastKey()
}

// Entries reports how many entries the block holds.
func (b *RawBlock) Entries() int {
	if b.Adopted() {
		return b.entries
	}
	return b.data.Entries()
}

// Adopted reports whether b is an input table's block taken over as it
// is stored.
func (b *RawBlock) Adopted() bool { return b.image.B != nil }

// Stored returns the image the table gets — payload, codec byte and
// CRC — once b is sealed or adopted.
func (b *RawBlock) Stored() []byte { return b.stored }

// Encodes reports whether sealing b runs the codec, not only the
// checksum.
func (b *RawBlock) Encodes() bool { return !b.Adopted() && b.compression.Encodes() }

// Seal finishes the block image and stores it per the block's codec
// (see seal); an adopted block is stored already. It is safe on any
// goroutine that owns b.
func (b *RawBlock) Seal() {
	if b.Adopted() {
		return
	}
	contents := b.data.Finish()
	b.rawLen = len(contents)
	b.stored, b.enc = seal(contents, b.enc, b.compression)
}

// seal stores contents per c — encoded into enc's storage when that
// pays for itself, as they are otherwise — followed by the codec byte
// and a CRC-32C over payload and codec byte, so corruption is caught
// before any decode runs. The trailer is appended to the payload's own
// buffer, which no caller reads again before resetting it. It returns
// the stored image and the encoder's buffer, for reuse.
func seal(contents, enc []byte, c Compression) (stored, encBuf []byte) {
	payload, codec := contents, byte(0)
	if lv, ok := c.level(); ok {
		enc = compress.Encode(enc, contents, lv)
		if compress.Compressible(enc, len(contents)) {
			payload, codec = enc, byte(c)
		}
	}
	buf := append(payload, codec)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), enc
}

// Assembler appends sealed data blocks to one table file and finishes
// it.
type Assembler struct {
	f    vfs.File
	opts Options

	index *block.Builder

	offset      uint64
	pendingLast []byte // last key of the appended block awaiting its separator
	pendingH    Handle
	hasPending  bool
	sep         []byte // the index separator being added, reused

	// filterHashes holds bloom.Hash of every user key — all the filter
	// needs of it; the slice is the scratch's when one is lent.
	filterHashes []uint32
	filter       *bloom.Filter
	enc          []byte // encoder buffer when no scratch is lent

	smallest, largest []byte
	entries           int
	hbuf              [2 * binary.MaxVarintLen64]byte // room to encode one handle
}

// NewAssembler returns an assembler of a table written to f.
func NewAssembler(f vfs.File, opts Options) *Assembler {
	opts = opts.withDefaults()
	a := &Assembler{f: f, opts: opts, index: block.NewBuilder(1)}
	if opts.BloomBitsPerKey > 0 {
		a.filter = bloom.New(opts.BloomBitsPerKey)
		if opts.Scratch != nil {
			a.filterHashes = opts.Scratch.hashes[:0]
		}
	}
	return a
}

// Append adds the sealed blk as the table's next data block: it
// charges blk's encode to tl — none for an adopted block, which no
// encode made — then appends the stored image (one syscall per block,
// like LevelDB's buffered WritableFile). blk's keys must follow the
// table's.
func (a *Assembler) Append(tl *vclock.Timeline, blk *RawBlock) error {
	if a.hasPending {
		a.sep = keys.AppendSeparatorInternal(a.sep[:0], a.pendingLast, blk.first)
		a.index.Add(a.sep, a.pendingH.encode(a.hbuf[:0]))
		a.hasPending = false
	}
	if a.smallest == nil {
		a.smallest = append([]byte(nil), blk.first...)
	}
	last := blk.Last()
	a.largest = append(a.largest[:0], last...)
	if a.filter != nil {
		a.filterHashes = append(a.filterHashes, blk.hashes...)
	}
	a.entries += blk.Entries()
	if !blk.Adopted() {
		a.chargeEncode(tl, blk.rawLen, blk.compression)
	}
	h, err := a.write(tl, blk.stored)
	if err != nil {
		return err
	}
	a.pendingLast = append(a.pendingLast[:0], last...)
	a.pendingH = h
	a.hasPending = true
	return nil
}

// chargeEncode advances tl by the encode of rawLen bytes under c.
func (a *Assembler) chargeEncode(tl *vclock.Timeline, rawLen int, c Compression) {
	if bw, ok := c.encodeBandwidth(); ok {
		tl.Advance(codecCost(rawLen, bw, a.opts.CodecCostDiv))
	}
}

// write appends stored and returns its handle.
func (a *Assembler) write(tl *vclock.Timeline, stored []byte) (Handle, error) {
	if err := a.f.Append(tl, stored); err != nil {
		return Handle{}, err
	}
	h := Handle{Offset: a.offset, Size: uint64(len(stored) - blockTrailerLen)}
	a.offset += uint64(len(stored))
	return h, nil
}

// writeBlock seals a table-wide block — filter, metaindex, index — on
// the caller's goroutine and writes it.
func (a *Assembler) writeBlock(tl *vclock.Timeline, contents []byte) (Handle, error) {
	enc := &a.enc
	if a.opts.Scratch != nil {
		enc = &a.opts.Scratch.enc
	}
	var stored []byte
	stored, *enc = seal(contents, *enc, a.opts.Compression)
	a.chargeEncode(tl, len(contents), a.opts.Compression)
	return a.write(tl, stored)
}

// Finish writes the filter, metaindex, index and footer after the last
// data block. The file is not synced — durability policy is the
// engine's decision (that is the whole point of NobLSM).
func (a *Assembler) Finish(tl *vclock.Timeline) error {
	if a.hasPending {
		a.sep = keys.AppendSuccessorInternal(a.sep[:0], a.pendingLast)
		a.index.Add(a.sep, a.pendingH.encode(a.hbuf[:0]))
		a.hasPending = false
	}

	// Filter block. The scratch lends its dst and the hash slice, so a
	// flush or compaction building many tables allocates one of each,
	// not one per table.
	meta := block.NewBuilder(1)
	if a.filter != nil && len(a.filterHashes) > 0 {
		var fdst []byte
		if a.opts.Scratch != nil {
			fdst = a.opts.Scratch.filter[:0]
		}
		fb := a.filter.BuildHashes(fdst, a.filterHashes)
		if a.opts.Scratch != nil {
			a.opts.Scratch.filter = fb
			a.opts.Scratch.hashes = a.filterHashes
		}
		fh, err := a.writeBlock(tl, fb)
		if err != nil {
			return err
		}
		meta.Add([]byte(filterName), fh.encode(a.hbuf[:0]))
	}
	metaH, err := a.writeBlock(tl, meta.Finish())
	if err != nil {
		return err
	}
	indexH, err := a.writeBlock(tl, a.index.Finish())
	if err != nil {
		return err
	}

	footer := make([]byte, 0, footerLen)
	footer = metaH.encode(footer)
	footer = indexH.encode(footer)
	for len(footer) < footerLen-8 {
		footer = append(footer, 0)
	}
	footer = binary.LittleEndian.AppendUint64(footer, magic)
	if err := a.f.Append(tl, footer); err != nil {
		return err
	}
	a.offset += footerLen
	return nil
}

// Entries reports how many entries the appended blocks hold.
func (a *Assembler) Entries() int { return a.entries }

// FileSize reports the bytes written so far (post-Finish: final size):
// the assembler's own count, so a compaction's cut check takes no
// filesystem lock.
func (a *Assembler) FileSize() int64 { return int64(a.offset) }

// Smallest reports the smallest appended internal key.
func (a *Assembler) Smallest() []byte { return a.smallest }

// Largest reports the largest appended internal key.
func (a *Assembler) Largest() []byte { return a.largest }

// Builder streams sorted entries into an SSTable file: the cutter, the
// sealer and the assembler inline, one block at a time.
type Builder struct {
	*Assembler
	blk *RawBlock
	err error
}

// NewBuilder returns a builder writing to f.
func NewBuilder(f vfs.File, opts Options) *Builder {
	b := &Builder{Assembler: NewAssembler(f, opts), blk: NewRawBlock(opts)}
	if opts.Scratch != nil {
		b.blk.enc = opts.Scratch.enc
	}
	return b
}

// Add appends an entry; internal keys must be strictly increasing.
func (b *Builder) Add(tl *vclock.Timeline, ikey, value []byte) error {
	if b.err != nil {
		return b.err
	}
	if b.blk.Add(ikey, value) {
		b.err = b.flush(tl)
	}
	return b.err
}

// flush seals the full block and appends it.
func (b *Builder) flush(tl *vclock.Timeline) error {
	b.blk.Seal()
	if b.opts.Scratch != nil {
		b.opts.Scratch.enc = b.blk.enc
	}
	err := b.Assembler.Append(tl, b.blk)
	b.blk.Reset(b.opts)
	return err
}

// Finish flushes the last data block and writes filter, metaindex,
// index and footer (see Assembler.Finish).
func (b *Builder) Finish(tl *vclock.Timeline) error {
	if b.err != nil {
		return b.err
	}
	if !b.blk.Empty() {
		if err := b.flush(tl); err != nil {
			return err
		}
	}
	return b.Assembler.Finish(tl)
}

// Entries reports how many entries were added.
func (b *Builder) Entries() int { return b.Assembler.Entries() + b.blk.data.Entries() }
