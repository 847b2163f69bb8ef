package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"noblsm/internal/block"
	"noblsm/internal/bloom"
	"noblsm/internal/cache"
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// Reader provides point lookups and iteration over one SSTable file.
type Reader struct {
	f       vfs.File
	cacheID uint64
	blocks  *cache.Cache // shared hot block tier; may be nil
	cblocks *cache.Cache // shared compressed-payload tier; may be nil
	index   block.Reader
	filter  []byte // whole-table bloom filter; nil if absent
	policy  *bloom.Filter

	codecDiv int64 // scale divisor for codec CPU charges
}

// compressedBlock is a compressed-tier cache entry: a CRC-verified
// stored payload plus its codec tag, ~2-3× denser than the parsed
// block the hot tier holds once the block is hit.
type compressedBlock struct {
	codec byte
	data  []byte
}

// lazyBlock is the hot tier's entry for a compressed block. It is
// admitted holding the CRC-verified payload — the slice the warm tier
// holds — and charged the decoded length, as a decoded block would be.
// Its first hit decodes the payload once, on the host and uncharged (a
// hit costs no virtual time), and keeps the decoded block in the same
// entry: the cache sees neither a second LRU move nor a fill. A block
// the tier evicts before any hit was never decoded into memory the
// tier kept.
type lazyBlock struct {
	once    sync.Once
	codec   byte
	payload []byte // dropped once decoded
	br      block.Reader
	err     error
}

// decoded returns the decoded block, decoding it on the first call.
func (lb *lazyBlock) decoded() (*block.Reader, error) {
	lb.once.Do(func() {
		dec, err := decode(nil, lb.payload, lb.codec)
		if err == nil {
			err = lb.br.Init(dec, keys.CompareInternal)
		}
		lb.payload, lb.err = nil, err
	})
	return &lb.br, lb.err
}

// Open validates the footer and loads the index and filter blocks.
// cacheID must be unique per file (the engine uses the file number);
// blocks may be nil to disable block caching.
func Open(tl *vclock.Timeline, f vfs.File, opts Options, cacheID uint64, blocks *cache.Cache) (*Reader, error) {
	opts = opts.withDefaults()
	size := f.Size()
	if size < footerLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(tl, footer, size-footerLen); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(footer[footerLen-8:]); got != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, got)
	}
	metaH, n, err := decodeHandle(footer)
	if err != nil {
		return nil, err
	}
	indexH, _, err := decodeHandle(footer[n:])
	if err != nil {
		return nil, err
	}

	r := &Reader{
		f: f, cacheID: cacheID, blocks: blocks,
		cblocks:  opts.CompressedCache,
		policy:   bloom.New(opts.BloomBitsPerKey),
		codecDiv: opts.CodecCostDiv,
	}

	indexData, err := r.readBlockRaw(tl, indexH)
	if err != nil {
		return nil, err
	}
	if err := r.index.Init(indexData, keys.CompareInternal); err != nil {
		return nil, err
	}

	metaData, err := r.readBlockRaw(tl, metaH)
	if err != nil {
		return nil, err
	}
	meta, err := block.NewReader(metaData, keys.CompareUser)
	if err != nil {
		return nil, err
	}
	mit := meta.NewIter()
	for mit.First(); mit.Valid(); mit.Next() {
		if string(mit.Key()) == filterName {
			fh, _, err := decodeHandle(mit.Value())
			if err != nil {
				return nil, err
			}
			r.filter, err = r.readBlockRaw(tl, fh)
			if err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// Close releases the underlying file handle. The reader must not be
// used afterwards.
func (r *Reader) Close(tl *vclock.Timeline) error {
	return r.f.Close(tl)
}

// blockBuf is a pooled block buffer: a compaction's block, or a point
// read's decode of a block the caches do not keep decoded. The pool
// holds pointers, so handing one back allocates nothing.
type blockBuf struct {
	b []byte
	// refs counts the holders of a buffer shared by a peeking scan and
	// its log (scanBlock); 0 for one held by a single owner.
	refs atomic.Int32
}

// blockBufPool recycles block buffers: a compaction reads every input
// block exactly once and a point read uses the block it decoded for
// one lookup, so each buffer is dead as soon as its reader moves on.
var blockBufPool = sync.Pool{New: func() any { return new(blockBuf) }}

// getBlockBuf draws a buffer holding n bytes, growing it when the
// pool's next one is too small. With n = 0 it is empty with whatever
// capacity it has, for a decode into it: the codec then makes the same
// choice, knowing the block's length.
func getBlockBuf(n int) *blockBuf {
	bb := blockBufPool.Get().(*blockBuf)
	if cap(bb.b) < n {
		bb.b = make([]byte, n)
	}
	bb.b = bb.b[:n]
	return bb
}

// putBlockBuf hands bb back; a shared buffer goes back with its last
// holder.
func putBlockBuf(bb *blockBuf) {
	if bb.refs.Load() != 0 && bb.refs.Add(-1) != 0 {
		return
	}
	blockBufPool.Put(bb)
}

// readBlockPayload reads the block at h into buf, which must hold the
// block and its trailer, CRC-verifies it bypassing the caches, and
// returns the stored (possibly still compressed) payload with its codec
// tag.
func (r *Reader) readBlockPayload(tl *vclock.Timeline, h Handle, buf []byte) ([]byte, byte, error) {
	if err := r.readAt(tl, h, buf); err != nil {
		return nil, 0, err
	}
	if err := verifyBlockTrailer(buf[:h.Size], buf[h.Size:], h.Offset); err != nil {
		return nil, 0, err
	}
	return buf[:h.Size], buf[h.Size], nil
}

// readAt copies the block at h and its trailer into buf.
func (r *Reader) readAt(tl *vclock.Timeline, h Handle, buf []byte) error {
	if _, err := r.f.ReadAt(tl, buf, int64(h.Offset)); err != nil {
		if errors.Is(err, io.EOF) {
			// A short read against a handle from the CRC-verified index
			// is real damage: the file lost its tail.
			return fmt.Errorf("%w: truncated block at %d: %v", ErrCorrupt, h.Offset, err)
		}
		// Any other failure (e.g. an injected transient fault) is an I/O
		// error, not corruption — the caller's retry path handles it.
		return err
	}
	return nil
}

// readBlockRaw reads, CRC-verifies and decodes the block at h into
// memory of its own, bypassing the caches (a table's index, metaindex
// and filter blocks).
func (r *Reader) readBlockRaw(tl *vclock.Timeline, h Handle) ([]byte, error) {
	payload, codec, err := r.readBlockPayload(tl, h, make([]byte, h.Size+blockTrailerLen))
	if err != nil {
		return nil, err
	}
	return r.decodePayload(tl, payload, codec, nil)
}

// verifyBlockTrailer checks the CRC-32C trailer over contents plus the
// compression byte.
func verifyBlockTrailer(contents, trailer []byte, off uint64) error {
	crc := crc32.New(castagnoli)
	crc.Write(contents)
	crc.Write(trailer[:1])
	if crc.Sum32() != binary.LittleEndian.Uint32(trailer[1:]) {
		return fmt.Errorf("%w: block CRC mismatch at %d", ErrCorrupt, off)
	}
	return nil
}

// decodePooled expands a compressed payload into a pooled buffer,
// charging decode CPU, and parses it into blk. The caller recycles the
// returned buffer once the block is dead.
func (r *Reader) decodePooled(tl *vclock.Timeline, payload []byte, codec byte, blk *block.Reader) (*blockBuf, error) {
	bb, n, err := decodeBlock(payload, codec, blk)
	r.ChargeDecode(tl, n)
	return bb, err
}

// decodeBlock is decodePooled off the clock: it reports the decoded
// length to charge — 0 when the codec failed, which is charged nothing.
func decodeBlock(payload []byte, codec byte, blk *block.Reader) (*blockBuf, int, error) {
	bb := getBlockBuf(0)
	dec, err := decode(bb.b, payload, codec)
	if err != nil {
		putBlockBuf(bb)
		return nil, 0, err
	}
	bb.b = dec
	n := 0
	if codec != 0 {
		n = len(dec)
	}
	if err := blk.Init(dec, keys.CompareInternal); err != nil {
		putBlockBuf(bb)
		return nil, n, err
	}
	return bb, n, nil
}

// ChargeDecode advances tl by the decode of a block whose decoded
// length is n (0: nothing to charge).
func (r *Reader) ChargeDecode(tl *vclock.Timeline, n int) {
	if n > 0 {
		tl.Advance(codecCost(n, decodeBytesPerSec, r.codecDiv))
	}
}

// Image is the stored image of one data block — payload and trailer —
// as a compaction scan loads it: a view of the file's memory, or a copy
// in a pooled buffer.
type Image struct {
	B   []byte
	buf *blockBuf // backing of a copy; nil for a view
}

// Release hands a copy's buffer back; a view holds none.
func (im Image) Release() {
	if im.buf != nil {
		putBlockBuf(im.buf)
	}
}

// ReadImage makes a compaction scan's charged read of the block at h:
// a page-cache view of the block and its trailer when the file grants
// one (the range resident and within one extent chunk), else a copy
// into a pooled buffer.
func (r *Reader) ReadImage(tl *vclock.Timeline, h Handle) (Image, error) {
	n := int(h.Size) + blockTrailerLen
	buf, ok, err := r.f.ReadView(tl, n, int64(h.Offset))
	if err != nil {
		return Image{}, err
	}
	if ok {
		return Image{B: buf}, nil
	}
	bb := getBlockBuf(n)
	if err := r.readAt(tl, h, bb.b); err != nil {
		putBlockBuf(bb)
		return Image{}, err
	}
	return Image{B: bb.b, buf: bb}, nil
}

// Replay makes the charged read of the block at h that a scan loaded
// from im, and checks the read returned the very bytes the scan used:
// the same view, or an equal copy. It returns the read's error; on a
// mismatch, the error the bytes it read meet — a CRC failure, as a
// scan of them would have met it — or, should they be sound, one
// saying the table changed under the scan. It releases im.
func (r *Reader) Replay(tl *vclock.Timeline, h Handle, im Image) error {
	defer im.Release()
	got, err := r.ReadImage(tl, h)
	if err != nil {
		return err
	}
	defer got.Release()
	if len(got.B) == len(im.B) && (&got.B[0] == &im.B[0] || bytes.Equal(got.B, im.B)) {
		return nil
	}
	if err := verifyBlockTrailer(got.B[:h.Size], got.B[h.Size:], h.Offset); err != nil {
		return err
	}
	return fmt.Errorf("sstable: block at %d changed under a compaction scan", h.Offset)
}

// ScanLog is where a compaction scan reports its block loads, in the
// order it makes them, so that another goroutine can replay each
// load's charged read and decode charge (Replay, ChargeDecode) while
// the scan runs ahead. The scan itself takes no timeline.
type ScanLog interface {
	// Load records that the scan loads the block at h. im is the image
	// the scan peeked, with a share of it the log releases when done
	// with it. It is empty when the scan does not peek or the file
	// could not be peeked: Load then returns the image a charged read
	// got, which the scan takes over, or that read's error, which ends
	// the scan. A log may also drop a peeked image and do the same.
	Load(h Handle, im Image) (Image, error)
	// Loaded reports what became of the image Load saw: the length the
	// scan decoded a compressed block to (0 for a raw block, or when the
	// codec failed) and the error that ended the load, if any.
	Loaded(declared int, err error)
}

// scanBlock loads the data block at h for a compaction scan, around the
// caches, and parses it into blk. A peeking scan looks at the block
// through the file's Peek and hands the log its share of the image; any
// other asks the log for it. It returns the pool-drawn buffer backing
// the block when there is one — the caller recycles it once the block
// is dead — and nil for a raw block read in place from a view. The
// stored image of a compressed block stays with the scan, in it.img,
// until it moves to another block or AdoptBlock hands the image on.
func (it *Iter) scanBlock(h Handle, blk *block.Reader) (*blockBuf, error) {
	var im Image
	if it.peek {
		im = it.peekImage(it.r.f, int64(h.Offset), int(h.Size)+blockTrailerLen)
	}
	im, err := it.log.Load(h, im)
	if err != nil {
		return nil, err
	}
	n, owned, stored, err := parseImage(im, h, blk)
	it.log.Loaded(n, err)
	it.img = stored
	return owned, err
}

// peekImage returns the n bytes at off as the scan peeks them: a slice
// of the last view when it holds them, else of a fresh one, else a
// pooled copy of the pieces they straddle — shared with the log. It
// returns an empty Image when the file cannot be peeked there.
func (it *Iter) peekImage(p vfs.Peeker, off int64, n int) Image {
	end := it.viewOff + int64(len(it.view))
	if off < it.viewOff || off >= end {
		v, err := p.Peek(off)
		if err != nil {
			return Image{}
		}
		it.view, it.viewOff, end = v, off, off+int64(len(v))
	}
	if s := off - it.viewOff; off+int64(n) <= end {
		return Image{B: it.view[s : s+int64(n) : s+int64(n)]}
	}
	bb := getBlockBuf(n)
	k := copy(bb.b, it.view[off-it.viewOff:])
	for k < n {
		v, err := p.Peek(off + int64(k))
		if err != nil {
			putBlockBuf(bb)
			return Image{}
		}
		it.view, it.viewOff = v, off+int64(k)
		k += copy(bb.b[k:], v)
	}
	bb.refs.Store(2) // the scan's and the log's
	return Image{B: bb.b, buf: bb}
}

// parseImage CRC-verifies a stored block image and parses it into blk,
// decoding a compressed one into a pooled buffer. It reports the
// decoded length to charge and returns the buffer backing blk, if any,
// and a compressed block's image, which the caller keeps; im's own
// buffer goes back to the pool on an error.
func parseImage(im Image, h Handle, blk *block.Reader) (int, *blockBuf, Image, error) {
	buf := im.B
	if err := verifyBlockTrailer(buf[:h.Size], buf[h.Size:], h.Offset); err != nil {
		im.Release()
		return 0, nil, Image{}, err
	}
	if codec := buf[h.Size]; codec != 0 {
		// Compressed blocks cannot be served in place.
		bb, n, err := decodeBlock(buf[:h.Size], codec, blk)
		if err != nil {
			im.Release()
			return n, nil, Image{}, err
		}
		return n, bb, im, nil
	}
	if err := blk.Init(buf[:h.Size:h.Size], keys.CompareInternal); err != nil {
		im.Release()
		return 0, nil, Image{}, err
	}
	return 0, im.buf, Image{}, nil
}

// hotBlock looks key up in the hot tier: a raw block is cached parsed,
// a compressed one as a lazyBlock that its first hit decodes.
func (r *Reader) hotBlock(key cache.Key) (*block.Reader, bool, error) {
	if r.blocks == nil {
		return nil, false, nil
	}
	v, ok := r.blocks.Get(key)
	if !ok {
		return nil, false, nil
	}
	if lb, lazy := v.(*lazyBlock); lazy {
		br, err := lb.decoded()
		return br, true, err
	}
	return v.(*block.Reader), true, nil
}

// dataBlock returns the data block at h via the shared caches, reading
// it on a miss (see admit). Compaction scans never come here: they load
// through scanBlock, which neither consults nor fills the caches.
func (it *Iter) dataBlock(h Handle, target []byte) (*block.Reader, *blockBuf, error) {
	r := it.r
	key := cache.Key{ID: r.cacheID, Off: h.Offset}
	// Hot tier: decode already paid.
	if br, ok, err := r.hotBlock(key); ok {
		return br, nil, err
	}
	// Warm tier: the stored payload, cache-resident at the codec's
	// density — a hit pays decode but no device read.
	if r.cblocks != nil {
		if v, ok := r.cblocks.Get(key); ok {
			cb := v.(compressedBlock)
			return it.admit(key, cb.data, cb.codec, false, target)
		}
	}
	payload, codec, err := r.readBlockPayload(it.tl, h, make([]byte, h.Size+blockTrailerLen))
	if err != nil {
		return nil, nil, err
	}
	return it.admit(key, payload, codec, true, target)
}

// admit parses a CRC-verified block that missed the hot tier and fills
// the tiers. A raw block is cached parsed and returned with no buffer
// to recycle. A compressed one is decoded, charged, into a pooled
// buffer parsed into it.blk — the iterator owns that buffer and
// recycles it once the block is dead; a Seek's only as far as it needs
// (seekPrefix) — while the warm tier (when fillWarm) and the hot tier
// (as a lazyBlock) keep payload, which must be memory of its own.
func (it *Iter) admit(key cache.Key, payload []byte, codec byte, fillWarm bool, target []byte) (*block.Reader, *blockBuf, error) {
	r := it.r
	if codec == 0 {
		br, err := block.NewReader(payload, keys.CompareInternal)
		if err != nil {
			return nil, nil, err
		}
		if r.blocks != nil {
			r.blocks.Put(key, br, int64(len(payload)))
		}
		return br, nil, nil
	}
	var bb *blockBuf
	var n int
	var err error
	if c := Compression(codec); target != nil && (c == FastCompression || c == MaxCompression) {
		bb, n, err = it.seekPrefix(payload, target)
	} else if bb, err = r.decodePooled(it.tl, payload, codec, &it.blk); err == nil {
		n = len(bb.b)
	}
	if err != nil {
		return nil, nil, err
	}
	if fillWarm && r.cblocks != nil {
		r.cblocks.Put(key, compressedBlock{codec: codec, data: payload}, int64(len(payload)))
	}
	if r.blocks != nil {
		r.blocks.Put(key, &lazyBlock{codec: codec, payload: payload}, int64(n))
	}
	return &it.blk, bb, nil
}

// seekPrefix is decodePooled for a Seek: it decodes only what
// block.Reader.SeekPrefix needs of the block's windows — the first keys
// of those it searches, and one as far as the first entry >= target —
// and positions the data cursor there, leaving the rest to it.dec
// (partial), but charges the declared length, as the modelled store
// decodes whole blocks. When the prefix cannot decide, the block is
// decoded and parsed whole for Seek to search as before. It returns the
// buffer and the declared length.
func (it *Iter) seekPrefix(payload, target []byte) (*blockBuf, int, error) {
	bb := getBlockBuf(0)
	n, err := it.dec.reset(bb.b, payload)
	if err == nil {
		bb.b = it.dec.image
		if it.partial = it.blk.SeekPrefix(&it.data, &it.dec, target, keys.CompareInternal, compareUserKeys); !it.partial {
			_, err = it.dec.all()
		}
	}
	if err != nil {
		putBlockBuf(bb)
		it.dec.release()
		return nil, 0, codecError(err)
	}
	it.decoded, it.declared = it.dec.decoded, n
	it.tl.Advance(codecCost(n, decodeBytesPerSec, it.r.codecDiv))
	if !it.partial {
		it.dec.release()
		if err := it.blk.Init(bb.b, keys.CompareInternal); err != nil {
			putBlockBuf(bb)
			return nil, 0, err
		}
	}
	return bb, n, nil
}

// MayContain consults the table bloom filter for ukey. A nil filter
// always reports true.
func (r *Reader) MayContain(ukey []byte) bool {
	if r.filter == nil {
		return true
	}
	return r.policy.MayContain(r.filter, ukey)
}

// Filtered reports whether the table has a bloom filter.
func (r *Reader) Filtered() bool { return r.filter != nil }

// Get finds the first entry with internal key >= seek and returns its
// key, copied, and its value, which aliases the block image: a block
// Get decoded for itself is not recycled, so the value stays valid.
// found is false if the table holds no such entry. The engine layers
// snapshot/user-key checks on top, probing through a cursor it keeps
// (Iter.Reset) rather than through Get.
func (r *Reader) Get(tl *vclock.Timeline, seek []byte) (ikey, value []byte, found bool, err error) {
	it := getIterPool.Get().(*Iter)
	defer getIterPool.Put(it)
	it.Reset(r, tl)
	defer it.Release()
	it.Seek(seek)
	if err := it.Err(); err != nil {
		return nil, nil, false, err
	}
	if !it.Valid() {
		return nil, nil, false, nil
	}
	it.owned = nil // the value may live in it
	return append([]byte(nil), it.Key()...), it.Value(), true, nil
}

// getIterPool recycles Get's cursors with the key buffers they grew.
var getIterPool = sync.Pool{New: func() any { return new(Iter) }}

// Iter is a two-level iterator: an index cursor selecting data blocks
// and a data cursor within the current block. Both cursors are part of
// the Iter and keep their key buffers from block to block.
type Iter struct {
	r    *Reader
	tl   *vclock.Timeline
	idx  block.Iter
	data block.Iter
	// inBlock reports that data is positioned within a loaded block.
	inBlock bool
	err     error
	// blk is the block the iterator itself holds, parsed in place: each
	// block of a compaction scan, and a point read's block that missed
	// the hot tier and was decoded into owned. A block served from the
	// hot tier is the cache's and is read where it lies.
	blk block.Reader
	// owned is the pool-drawn buffer backing blk, when it has one;
	// recycled when the iterator moves to another block or is released.
	owned *blockBuf
	// partial: a Seek decoded blk only as far as the entry it found,
	// and dec holds the rest, which Next decodes before it moves.
	partial           bool
	dec               windowed
	decoded, declared int // see Decoded
	// log, for a compaction scan, is where it reports the blocks it
	// loads through scanBlock, around the caches; peek says whether it
	// peeks them.
	log  ScanLog
	peek bool
	// img is the stored image of the compressed block a scan is in, and
	// atFirst says the scan is at the block's first entry: what
	// AdoptBlock needs. walk is AdoptBlock's cursor over the block.
	img     Image
	atFirst bool
	walk    block.Iter
	// view is the last piece of the file a peeking scan looked at,
	// starting at viewOff.
	view    []byte
	viewOff int64
}

// NewIterator returns an iterator over the whole table, charging block
// reads to tl.
func (r *Reader) NewIterator(tl *vclock.Timeline) *Iter {
	it := new(Iter)
	it.Reset(r, tl)
	return it
}

// NewScanIterator returns a compaction scan: an iterator whose block
// reads bypass the caches (LevelDB's fill_cache = false) — a compaction
// touches every input block exactly once, its inputs are deleted when
// it ends, and it must not evict the read path's working set. It runs
// off the clock: it reports every load to log, which owns the charges,
// and with peek looks at each block through the file's Peek before
// the log has a charged read's image.
func (r *Reader) NewScanIterator(log ScanLog, peek bool) *Iter {
	it := new(Iter)
	it.Reset(r, nil)
	it.log, it.peek = log, peek
	return it
}

// Reset points it at r, charging block reads to tl, exactly as
// NewIterator would return it but keeping the key buffers it grew:
// a point lookup borrows one Iter for every table it probes. The
// zero Iter is ready to Reset.
func (it *Iter) Reset(r *Reader, tl *vclock.Timeline) {
	it.Release()
	it.r, it.tl, it.err = r, tl, nil
	r.index.ResetIter(&it.idx)
}

// Release hands back the pooled buffer the iterator holds — a block
// decoded for it — and lets go of the table and its blocks, keeping
// only the key buffers: a released Iter waiting in a pool must not keep
// a closed store's files reachable. Key and Value must not be used
// afterwards, and the iterator is Reset before its next use.
func (it *Iter) Release() {
	it.inBlock = false
	it.dropBlock()
	it.r, it.tl, it.blk = nil, nil, block.Reader{}
	it.log, it.peek = nil, false
	it.view, it.viewOff = nil, 0
	noBlock.ResetIter(&it.idx)
	noBlock.ResetIter(&it.data)
	noBlock.ResetIter(&it.walk)
}

// noBlock is what a released Iter's cursors point at.
var noBlock block.Reader

// dropBlock recycles the buffer of a block the iterator decoded for
// itself and a scan's stored image of it, and forgets the rest of a
// block a Seek left partial.
func (it *Iter) dropBlock() {
	if it.owned != nil {
		putBlockBuf(it.owned)
		it.owned = nil
	}
	it.img.Release()
	it.img, it.atFirst = Image{}, false
	it.dec.release()
	it.partial = false
}

// fetchBlock loads the data block at h: around the caches for a
// compaction scan, through the block caches otherwise. A block the
// iterator holds itself is parsed into it.blk, backed by the buffer
// returned.
func (it *Iter) fetchBlock(h Handle, target []byte) (*block.Reader, *blockBuf, error) {
	if it.log != nil {
		owned, err := it.scanBlock(h, &it.blk)
		return &it.blk, owned, err
	}
	return it.dataBlock(h, target)
}

// loadDataBlock parses the block referenced by the current index
// entry and points the data cursor at it, or for a Seek (target) maybe
// at its entry already (partial). The block the iterator held is
// recycled first: its keys were copied out and its values die with the
// move.
func (it *Iter) loadDataBlock(target []byte) bool {
	it.inBlock = false
	it.dropBlock()
	h, _, err := decodeHandle(it.idx.Value())
	if err != nil {
		it.err = err
		return false
	}
	br, owned, err := it.fetchBlock(h, target)
	if err != nil {
		it.err = err
		return false
	}
	it.owned = owned
	if !it.partial {
		br.ResetIter(&it.data)
	}
	it.inBlock = true
	return true
}

// finishBlock decodes the rest of a partial block and parses it whole
// under the data cursor, which keeps its place: its offsets count from
// the block's start, and decoded bytes stay where they are.
func (it *Iter) finishBlock() bool {
	dec, err := it.dec.all()
	it.dec.release()
	it.partial = false
	if err != nil {
		err = codecError(err)
	} else {
		it.owned.b = dec
		err = it.blk.Init(dec, keys.CompareInternal)
	}
	if err != nil {
		it.err, it.inBlock = err, false
		return false
	}
	return true
}

// skipExhausted moves past data blocks the data cursor has run off,
// positioning at the first entry of the next block that has one. A
// block that stopped on a malformed entry ends the scan with its error:
// what follows it is not the rest of the table.
func (it *Iter) skipExhausted() {
	for !it.data.Valid() {
		if err := it.data.Err(); err != nil {
			it.err = err
			return
		}
		if !it.nextBlock() {
			return
		}
	}
}

// nextBlock positions at the first entry of the next data block, if
// there is one and it loads.
func (it *Iter) nextBlock() bool {
	it.idx.Next()
	if !it.idx.Valid() || !it.loadDataBlock(nil) {
		it.inBlock = false
		return false
	}
	it.data.First()
	it.atFirst = true
	return true
}

// First implements iterator.Iterator.
func (it *Iter) First() {
	it.err = nil
	it.idx.First()
	if !it.idx.Valid() || !it.loadDataBlock(nil) {
		it.inBlock = false
		return
	}
	it.data.First()
	it.atFirst = true
	it.skipExhausted()
}

// Seek implements iterator.Iterator.
func (it *Iter) Seek(target []byte) {
	it.err, it.decoded, it.declared = nil, 0, 0
	it.idx.Seek(target)
	if !it.idx.Valid() || !it.loadDataBlock(target) {
		it.inBlock = false
		return
	}
	if !it.partial {
		// Only the first candidate block can contain keys below target;
		// later blocks start above it.
		it.data.Seek(target)
	}
	it.skipExhausted()
}

// Decoded reports what the last Seek decoded of a compressed block that
// missed the hot tier and the length the block declares, or 0, 0.
func (it *Iter) Decoded() (decoded, declared int) { return it.decoded, it.declared }

// Next implements iterator.Iterator.
func (it *Iter) Next() {
	if !it.Valid() || it.partial && !it.finishBlock() {
		return
	}
	it.atFirst = false
	it.data.Next()
	it.skipExhausted()
}

// AtBlockStart reports whether a scan that moved by First and Next is
// at the first entry of a data block.
func (it *Iter) AtBlockStart() bool { return it.atFirst && it.Valid() }

// SkipBlock implements iterator.BlockSkipper: it moves to the first
// entry of the next data block that has one, without visiting the rest
// of this one.
func (it *Iter) SkipBlock() {
	if it.Valid() && it.nextBlock() {
		it.skipExhausted()
	}
}

// AdoptBlock makes dst, reset to o, the data block a compaction scan
// sits at the first entry of, exactly as the block is stored, when a
// table built to o would store the block's entries as these very bytes
// and a merge keeps every one of them: the block is stored under o's
// codec, which encodes (Encode is deterministic); o's cutter, fed the
// block's entries, would cut this very block (block.Reader.CutBy); it
// holds only values, no two of one user key; and its last user key
// sorts below limit's (nil: no bound). It reports whether it did: dst
// then holds the stored image, its first and last keys, entry count
// and filter hashes, and the scan, which has not moved, holds the block
// decoded until it moves on.
func (it *Iter) AdoptBlock(dst *RawBlock, o Options, limit []byte) bool {
	im := it.img
	if !it.AtBlockStart() || im.B == nil || !o.Compression.Encodes() ||
		im.B[len(im.B)-blockTrailerLen] != byte(o.Compression) {
		return false
	}
	if o = o.withDefaults(); !it.blk.CutBy(o.RestartInterval, o.BlockSize, o.Compression.window()) {
		return false
	}
	dst.Reset(o)
	w := &it.walk
	it.blk.ResetIter(w)
	n := 0
	for w.First(); w.Valid(); w.Next() {
		ukey, _, kind, ok := keys.ParseInternalKey(w.Key())
		if !ok || kind != keys.KindValue || n > 0 && bytes.Equal(ukey, keys.UserKey(dst.last)) {
			return false
		}
		if dst.bloom {
			dst.hashes = append(dst.hashes, bloom.Hash(ukey))
		}
		dst.last = append(dst.last[:0], w.Key()...)
		n++
	}
	if w.Err() != nil || limit != nil && keys.CompareUser(keys.UserKey(dst.last), keys.UserKey(limit)) >= 0 {
		return false
	}
	dst.first = append(dst.first[:0], it.Key()...)
	dst.image, dst.stored, dst.entries = im, im.B, n
	it.img = Image{}
	return true
}

// Valid implements iterator.Iterator.
func (it *Iter) Valid() bool { return it.inBlock && it.data.Valid() }

// Key implements iterator.Iterator.
func (it *Iter) Key() []byte { return it.data.Key() }

// Value implements iterator.Iterator.
func (it *Iter) Value() []byte { return it.data.Value() }

// Err implements iterator.Iterator.
func (it *Iter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.idx.Err()
}

var (
	_ iterator.Iterator     = (*Iter)(nil)
	_ iterator.BlockSkipper = (*Iter)(nil)
)
