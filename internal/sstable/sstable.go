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

// Builder streams sorted entries into an SSTable file.
type Builder struct {
	f    vfs.File
	opts Options

	data  *block.Builder
	index *block.Builder

	offset      uint64
	pendingIkey []byte // last key of the finished block awaiting separator
	pendingH    Handle
	hasPending  bool
	sep         []byte // the index separator being added, reused

	// filterHashes holds bloom.Hash of every added user key — all the
	// filter needs of it; the slice is the scratch's when one is lent.
	filterHashes []uint32
	filter       *bloom.Filter

	smallest, largest []byte
	entries           int
	hbuf              [2 * binary.MaxVarintLen64]byte // room to encode one handle
	err               error
}

// NewBuilder returns a builder writing to f.
func NewBuilder(f vfs.File, opts Options) *Builder {
	opts = opts.withDefaults()
	b := &Builder{
		f:     f,
		opts:  opts,
		data:  block.NewBuilder(opts.RestartInterval),
		index: block.NewBuilder(1),
	}
	if opts.BloomBitsPerKey > 0 {
		b.filter = bloom.New(opts.BloomBitsPerKey)
		if opts.Scratch != nil {
			b.filterHashes = opts.Scratch.hashes[:0]
		}
	}
	return b
}

// Add appends an entry; internal keys must be strictly increasing.
func (b *Builder) Add(tl *vclock.Timeline, ikey, value []byte) error {
	if b.err != nil {
		return b.err
	}
	if b.hasPending {
		b.sep = keys.AppendSeparatorInternal(b.sep[:0], b.pendingIkey, ikey)
		b.index.Add(b.sep, b.pendingH.encode(b.hbuf[:0]))
		b.hasPending = false
	}
	if b.smallest == nil {
		b.smallest = append([]byte(nil), ikey...)
	}
	b.largest = append(b.largest[:0], ikey...)
	if b.filter != nil {
		b.filterHashes = append(b.filterHashes, bloom.Hash(keys.UserKey(ikey)))
	}
	b.data.Add(ikey, value)
	b.entries++
	if b.data.EstimatedSize() >= b.opts.BlockSize {
		b.err = b.flushDataBlock(tl, ikey)
	}
	return b.err
}

func (b *Builder) flushDataBlock(tl *vclock.Timeline, lastIkey []byte) error {
	h, err := b.writeBlock(tl, b.data.Finish())
	if err != nil {
		return err
	}
	b.data.Reset()
	b.pendingIkey = append(b.pendingIkey[:0], lastIkey...)
	b.pendingH = h
	b.hasPending = true
	return nil
}

// writeBlock compresses contents per the configured codec (keeping
// the raw bytes when compression does not pay), then appends the
// stored payload plus the codec/CRC trailer as a single write (one
// syscall per block, like LevelDB's buffered WritableFile). The CRC
// covers the stored payload and the codec byte, so corruption is
// caught before any decode runs. The trailer is appended to the
// payload's own buffer — contents' or the scratch encoder's — which no
// caller reads again before resetting it, so the file's copy is the
// block's only one.
func (b *Builder) writeBlock(tl *vclock.Timeline, contents []byte) (Handle, error) {
	payload, codec := b.encodeBlock(tl, contents)
	h := Handle{Offset: b.offset, Size: uint64(len(payload))}
	buf := append(payload, codec)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	if err := b.f.Append(tl, buf); err != nil {
		return Handle{}, err
	}
	b.offset += uint64(len(buf))
	return h, nil
}

// Finish flushes remaining blocks, writes filter, metaindex, index and
// footer. The file is not synced — durability policy is the engine's
// decision (that is the whole point of NobLSM).
func (b *Builder) Finish(tl *vclock.Timeline) error {
	if b.err != nil {
		return b.err
	}
	if !b.data.Empty() {
		if err := b.flushDataBlock(tl, b.largest); err != nil {
			return err
		}
	}
	if b.hasPending {
		b.sep = keys.AppendSuccessorInternal(b.sep[:0], b.pendingIkey)
		b.index.Add(b.sep, b.pendingH.encode(b.hbuf[:0]))
		b.hasPending = false
	}

	// Filter block. The scratch lends its dst and the hash slice, so a
	// flush or compaction building many tables allocates one of each,
	// not one per table.
	meta := block.NewBuilder(1)
	if b.filter != nil && len(b.filterHashes) > 0 {
		var fdst []byte
		if b.opts.Scratch != nil {
			fdst = b.opts.Scratch.filter[:0]
		}
		fb := b.filter.BuildHashes(fdst, b.filterHashes)
		if b.opts.Scratch != nil {
			b.opts.Scratch.filter = fb
			b.opts.Scratch.hashes = b.filterHashes
		}
		fh, err := b.writeBlock(tl, fb)
		if err != nil {
			return err
		}
		meta.Add([]byte(filterName), fh.encode(b.hbuf[:0]))
	}
	metaH, err := b.writeBlock(tl, meta.Finish())
	if err != nil {
		return err
	}
	indexH, err := b.writeBlock(tl, b.index.Finish())
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
	if err := b.f.Append(tl, footer); err != nil {
		return err
	}
	b.offset += footerLen
	return nil
}

// Entries reports how many entries were added.
func (b *Builder) Entries() int { return b.entries }

// FileSize reports the bytes written so far (post-Finish: final size):
// the builder's own count, so the per-entry cut check of a compaction
// output takes no filesystem lock.
func (b *Builder) FileSize() int64 { return int64(b.offset) }

// Smallest and Largest report the key range (valid after ≥1 Add).
func (b *Builder) Smallest() []byte { return b.smallest }

// Largest reports the largest added internal key.
func (b *Builder) Largest() []byte { return b.largest }
