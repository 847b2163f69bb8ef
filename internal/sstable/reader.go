package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

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
	blocks  *cache.Cache // shared uncompressed-block cache; may be nil
	cblocks *cache.Cache // shared compressed-payload cache; may be nil
	index   *block.Reader
	filter  []byte // whole-table bloom filter; nil if absent
	policy  *bloom.Filter

	codecDiv  int64  // scale divisor for codec CPU charges
	raMax     int    // iterator readahead cap, in blocks (≤1 off)
	blockSize int    // configured block size, for readahead windows
	dataEnd   uint64 // file offset where data blocks end
}

// compressedBlock is a compressed-tier cache entry: a CRC-verified
// stored payload plus its codec tag, ~2-3× denser than the parsed
// block the uncompressed tier holds.
type compressedBlock struct {
	codec byte
	data  []byte
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
		cblocks:   opts.CompressedCache,
		policy:    bloom.New(opts.BloomBitsPerKey),
		codecDiv:  opts.CodecCostDiv,
		raMax:     opts.ReadaheadBlocks,
		blockSize: opts.BlockSize,
	}
	// Data blocks end where the first meta-region block begins
	// (refined below if a filter block sits before the metaindex);
	// readahead windows never reach past this.
	r.dataEnd = metaH.Offset
	if indexH.Offset < r.dataEnd {
		r.dataEnd = indexH.Offset
	}

	indexData, err := r.readBlockRaw(tl, indexH, false)
	if err != nil {
		return nil, err
	}
	r.index, err = block.NewReader(indexData, keys.CompareInternal)
	if err != nil {
		return nil, err
	}

	metaData, err := r.readBlockRaw(tl, metaH, false)
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
			if fh.Offset < r.dataEnd {
				r.dataEnd = fh.Offset
			}
			r.filter, err = r.readBlockRaw(tl, fh, false)
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

// blockBufPool recycles block read buffers for compaction scans: a
// compaction reads every input block exactly once and discards it as
// soon as its iterator moves on, so without recycling these buffers
// were the second-largest allocation source in write benchmarks.
var blockBufPool sync.Pool

// getBlockBuf draws a buffer of n bytes, allocating when the pool's
// next one is too small. With n = 0 it yields whatever the pool holds,
// for a decode into its capacity: the codec then makes the same
// choice, knowing the block's length.
func getBlockBuf(n int) []byte {
	if v := blockBufPool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putBlockBuf(b []byte) {
	b = b[:cap(b)]
	blockBufPool.Put(&b)
}

// readBlockPayload reads and CRC-verifies the block at h, bypassing
// the caches, and returns the stored (possibly still compressed)
// payload with its codec tag. pooled draws the buffer from
// blockBufPool; the caller then owns it and is responsible for
// recycling.
func (r *Reader) readBlockPayload(tl *vclock.Timeline, h Handle, pooled bool) ([]byte, byte, error) {
	var buf []byte
	if pooled {
		buf = getBlockBuf(int(h.Size) + blockTrailerLen)
	} else {
		buf = make([]byte, h.Size+blockTrailerLen)
	}
	if _, err := r.f.ReadAt(tl, buf, int64(h.Offset)); err != nil {
		if errors.Is(err, io.EOF) {
			// A short read against a handle from the CRC-verified index
			// is real damage: the file lost its tail.
			return nil, 0, fmt.Errorf("%w: truncated block at %d: %v", ErrCorrupt, h.Offset, err)
		}
		// Any other failure (e.g. an injected transient fault) is an I/O
		// error, not corruption — the caller's retry path handles it.
		return nil, 0, err
	}
	if err := verifyBlockTrailer(buf[:h.Size], buf[h.Size:], h.Offset); err != nil {
		return nil, 0, err
	}
	return buf[:h.Size], buf[h.Size], nil
}

// readBlockRaw reads, CRC-verifies and decodes the block at h,
// bypassing the caches. pooled draws the returned buffer from
// blockBufPool; the caller then owns it and is responsible for
// recycling.
func (r *Reader) readBlockRaw(tl *vclock.Timeline, h Handle, pooled bool) ([]byte, error) {
	payload, codec, err := r.readBlockPayload(tl, h, pooled)
	if err != nil {
		return nil, err
	}
	if codec == 0 {
		return payload, nil
	}
	var dst []byte
	if pooled {
		dst = getBlockBuf(0)
	}
	dec, err := r.decodePayload(tl, payload, codec, dst)
	if pooled {
		putBlockBuf(payload)
	}
	return dec, err
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

// compactionBlock loads and CRC-verifies the data block at h for a
// compaction scan, preferring a zero-copy page-cache view when the
// file supports it (vfs.ViewReader and the block does not straddle an
// extent chunk). owned is the pool-drawn buffer backing the block on
// the copy path — the caller recycles it via putBlockBuf once the
// block is dead — and nil on the view path, whose backing memory stays
// valid while the table's file handle is open.
func (r *Reader) compactionBlock(tl *vclock.Timeline, h Handle) (*block.Reader, []byte, error) {
	if vr, ok := r.f.(vfs.ViewReader); ok {
		buf, ok, err := vr.ReadView(tl, int(h.Size)+blockTrailerLen, int64(h.Offset))
		if err != nil {
			return nil, nil, err
		}
		if ok {
			if err := verifyBlockTrailer(buf[:h.Size], buf[h.Size:], h.Offset); err != nil {
				return nil, nil, err
			}
			if codec := buf[h.Size]; codec != 0 {
				// Compressed blocks cannot be served zero-copy; decode
				// into a pooled buffer the caller recycles.
				dec, err := r.decodePayload(tl, buf[:h.Size], codec, getBlockBuf(0))
				if err != nil {
					return nil, nil, err
				}
				br, err := block.NewReader(dec, keys.CompareInternal)
				if err != nil {
					putBlockBuf(dec)
					return nil, nil, err
				}
				return br, dec, nil
			}
			br, err := block.NewReader(buf[:h.Size:h.Size], keys.CompareInternal)
			return br, nil, err
		}
	}
	data, err := r.readBlockRaw(tl, h, true)
	if err != nil {
		return nil, nil, err
	}
	br, err := block.NewReader(data, keys.CompareInternal)
	if err != nil {
		putBlockBuf(data)
		return nil, nil, err
	}
	return br, data, nil
}

// dataBlock returns a parsed data block via the shared caches, reading
// and inserting it on a miss. Compaction scans never come here: they
// load through compactionBlock, which neither consults nor fills the
// caches.
func (r *Reader) dataBlock(tl *vclock.Timeline, h Handle) (*block.Reader, error) {
	key := cache.Key{ID: r.cacheID, Off: h.Offset}
	// Hot tier: the parsed block, decode already paid.
	if r.blocks != nil {
		if v, ok := r.blocks.Get(key); ok {
			return v.(*block.Reader), nil
		}
	}
	// Warm tier: the stored payload, cache-resident at the codec's
	// density — a hit pays decode but no device read.
	var payload []byte
	var codec byte
	warm := false
	if r.cblocks != nil {
		if v, ok := r.cblocks.Get(key); ok {
			cb := v.(compressedBlock)
			payload, codec, warm = cb.data, cb.codec, true
		}
	}
	if !warm {
		var err error
		payload, codec, err = r.readBlockPayload(tl, h, false)
		if err != nil {
			return nil, err
		}
	}
	data := payload
	if codec != 0 {
		var err error
		data, err = r.decodePayload(tl, payload, codec, nil)
		if err != nil {
			return nil, err
		}
		if !warm && r.cblocks != nil {
			r.cblocks.Put(key, compressedBlock{codec: codec, data: payload}, int64(len(payload)))
		}
	}
	br, err := block.NewReader(data, keys.CompareInternal)
	if err != nil {
		return nil, err
	}
	if r.blocks != nil {
		r.blocks.Put(key, br, int64(len(data)))
	}
	return br, nil
}

// MayContain consults the table bloom filter for ukey. A nil filter
// always reports true.
func (r *Reader) MayContain(ukey []byte) bool {
	if r.filter == nil {
		return true
	}
	return r.policy.MayContain(r.filter, ukey)
}

// Get finds the first entry with internal key >= seek and returns its
// key and value. found is false if the table holds no such entry. The
// engine layers snapshot/user-key checks on top.
func (r *Reader) Get(tl *vclock.Timeline, seek []byte) (ikey, value []byte, found bool, err error) {
	it := r.NewIterator(tl)
	it.Seek(seek)
	if err := it.Err(); err != nil {
		return nil, nil, false, err
	}
	if !it.Valid() {
		return nil, nil, false, nil
	}
	return it.Key(), it.Value(), true, nil
}

// Iter is a two-level iterator: an index cursor selecting data blocks
// and a data cursor within the current block.
type Iter struct {
	r    *Reader
	tl   *vclock.Timeline
	idx  *block.Iter
	data *block.Iter
	err  error
	// compaction loads blocks through compactionBlock, around the
	// caches; owned is the pool-drawn buffer backing the current block
	// when that loader had to copy, recycled when the iterator moves to
	// the next block.
	compaction bool
	owned      []byte

	// Readahead state (active only when r.raMax > 1 and !compaction): a
	// scan that loads consecutive blocks ramps a prefetch window
	// 1→raMax blocks, fetched as one device request and served
	// block by block; see fetchBlock.
	raNext   uint64 // expected offset of the next sequential block
	raStreak int    // consecutive sequential block loads
	raWin    int    // current window size, in blocks
	raBuf    []byte // prefetched raw file bytes, nil when none
	raOff    uint64 // file offset of raBuf[0]
	raView   bool   // raBuf aliases a page-cache view (not pooled)
}

// raNone marks "no sequential predecessor" (offset 0 is a real block).
const raNone = ^uint64(0)

// NewIterator returns an iterator over the whole table, charging block
// reads to tl.
func (r *Reader) NewIterator(tl *vclock.Timeline) *Iter {
	return &Iter{r: r, tl: tl, idx: r.index.NewIter(), raNext: raNone}
}

// NewCompactionIterator returns an iterator whose block reads bypass
// the caches (LevelDB's fill_cache = false): a compaction touches every
// input block exactly once, its inputs are deleted when it ends, and it
// must not evict the read path's working set. Blocks come from
// compactionBlock.
func (r *Reader) NewCompactionIterator(tl *vclock.Timeline) *Iter {
	return &Iter{r: r, tl: tl, idx: r.index.NewIter(), compaction: true, raNext: raNone}
}

// raReset cancels any prefetch window and restarts the ramp — called
// on Seek (and on any non-sequential block load): a repositioned scan
// must not pay for, or be served stale bytes from, a window fetched
// for the old position.
func (it *Iter) raReset() {
	if it.raBuf != nil && !it.raView {
		putBlockBuf(it.raBuf)
	}
	it.raBuf = nil
	it.raView = false
	it.raNext = raNone
	it.raStreak = 0
	it.raWin = 1
}

// fetchBlock loads the data block at h: around the caches for a
// compaction scan, else through the readahead window when the access
// pattern is sequential and readahead is enabled, and through the
// block caches otherwise.
func (it *Iter) fetchBlock(h Handle) (*block.Reader, []byte, error) {
	if it.compaction {
		return it.r.compactionBlock(it.tl, h)
	}
	if it.r.raMax > 1 {
		sequential := h.Offset == it.raNext
		if sequential {
			it.raStreak++
		} else if it.raNext != raNone {
			it.raReset()
		}
		it.raNext = h.Offset + h.Size + blockTrailerLen

		// Hot-tier hits need no window; they still advance the
		// streak so a later miss prefetches at full ramp.
		if it.r.blocks != nil {
			if v, ok := it.r.blocks.Get(cache.Key{ID: it.r.cacheID, Off: h.Offset}); ok {
				return v.(*block.Reader), nil, nil
			}
		}
		if it.raBuf != nil && !it.windowContains(h) {
			// Exhausted (or, post-compression, ended mid-block):
			// recycle it so the sequential path below refetches a
			// fresh, larger window starting at h.
			it.raDropWindow()
		}
		if it.raBuf == nil && sequential && it.raStreak >= 1 {
			if it.raWin < it.r.raMax {
				it.raWin *= 2
				if it.raWin > it.r.raMax {
					it.raWin = it.r.raMax
				}
			}
			if err := it.fillWindow(h); err != nil {
				// Fall through to the per-block path, whose error
				// reporting feeds the engine's retry/heal machinery.
				it.raDropWindow()
			}
		}
		if it.raBuf != nil && it.windowContains(h) {
			br, err := it.serveFromWindow(h)
			if err != nil {
				return nil, nil, err
			}
			return br, nil, nil
		}
	}
	br, err := it.r.dataBlock(it.tl, h)
	return br, nil, err
}

// windowContains reports whether the prefetched window wholly covers
// the block at h, trailer included.
func (it *Iter) windowContains(h Handle) bool {
	return h.Offset >= it.raOff &&
		h.Offset+h.Size+blockTrailerLen <= it.raOff+uint64(len(it.raBuf))
}

func (it *Iter) raDropWindow() {
	if it.raBuf != nil && !it.raView {
		putBlockBuf(it.raBuf)
	}
	it.raBuf = nil
	it.raView = false
}

// fillWindow fetches raw file bytes [h.Offset, h.Offset+window) in a
// single request: a zero-copy page-cache view when the file is
// resident, else one pooled ReadAt — the device charges one request
// latency for the whole window instead of one per block, which is the
// entire point of readahead on a cold scan.
func (it *Iter) fillWindow(h Handle) error {
	it.raDropWindow()
	start := h.Offset
	end := start + uint64(it.raWin)*uint64(it.r.blockSize)
	if min := start + h.Size + blockTrailerLen; end < min {
		end = min
	}
	if end > it.r.dataEnd {
		end = it.r.dataEnd
	}
	n := int(end - start)
	if n <= 0 {
		return nil
	}
	if vr, ok := it.r.f.(vfs.ViewReader); ok {
		buf, ok2, err := vr.ReadView(it.tl, n, int64(start))
		if err != nil {
			return err
		}
		if ok2 {
			it.raBuf, it.raOff, it.raView = buf, start, true
			return nil
		}
	}
	buf := getBlockBuf(n)
	if _, err := it.r.f.ReadAt(it.tl, buf, int64(start)); err != nil {
		putBlockBuf(buf)
		return err
	}
	it.raBuf, it.raOff, it.raView = buf, start, false
	return nil
}

// serveFromWindow carves the block at h out of the prefetched window:
// CRC-verified and decoded exactly like a device read, then copied
// into cache-owned memory and inserted in the shared tiers (the
// window buffer itself is transient).
func (it *Iter) serveFromWindow(h Handle) (*block.Reader, error) {
	b := it.raBuf[h.Offset-it.raOff:][:h.Size+blockTrailerLen]
	if err := verifyBlockTrailer(b[:h.Size], b[h.Size:], h.Offset); err != nil {
		return nil, err
	}
	payload, codec := b[:h.Size], b[h.Size]
	key := cache.Key{ID: it.r.cacheID, Off: h.Offset}
	var data []byte
	if codec == 0 {
		data = append([]byte(nil), payload...)
	} else {
		var err error
		data, err = it.r.decodePayload(it.tl, payload, codec, nil)
		if err != nil {
			return nil, err
		}
		if it.r.cblocks != nil {
			it.r.cblocks.Put(key, compressedBlock{codec: codec, data: append([]byte(nil), payload...)}, int64(len(payload)))
		}
	}
	br, err := block.NewReader(data, keys.CompareInternal)
	if err != nil {
		return nil, err
	}
	if it.r.blocks != nil {
		it.r.blocks.Put(key, br, int64(len(data)))
	}
	return br, nil
}

// loadDataBlock parses the block referenced by the current index
// entry.
func (it *Iter) loadDataBlock() bool {
	h, _, err := decodeHandle(it.idx.Value())
	if err != nil {
		it.err = err
		it.data = nil
		return false
	}
	br, owned, err := it.fetchBlock(h)
	if err != nil {
		it.err = err
		it.data = nil
		return false
	}
	if it.owned != nil {
		// The previous block is unreachable once its iterator is
		// replaced: keys were copied out and values die with it.
		putBlockBuf(it.owned)
	}
	it.owned = owned
	it.data = br.NewIter()
	return true
}

// First implements iterator.Iterator.
func (it *Iter) First() {
	it.idx.First()
	it.data = nil
	for it.idx.Valid() {
		if !it.loadDataBlock() {
			return
		}
		it.data.First()
		if it.data.Valid() {
			return
		}
		it.idx.Next()
	}
}

// Seek implements iterator.Iterator.
func (it *Iter) Seek(target []byte) {
	// A reposition invalidates the sequential-access hypothesis:
	// cancel any in-flight readahead window and restart the ramp.
	it.raReset()
	it.idx.Seek(target)
	it.data = nil
	seekInBlock := true
	for it.idx.Valid() {
		if !it.loadDataBlock() {
			return
		}
		if seekInBlock {
			// Only the first candidate block can contain keys
			// below target; later blocks start above it.
			it.data.Seek(target)
			seekInBlock = false
		} else {
			it.data.First()
		}
		if it.data.Valid() {
			return
		}
		it.idx.Next()
	}
	it.data = nil
}

// Next implements iterator.Iterator.
func (it *Iter) Next() {
	if it.data == nil || !it.data.Valid() {
		return
	}
	it.data.Next()
	for !it.data.Valid() {
		it.idx.Next()
		if !it.idx.Valid() {
			it.data = nil
			return
		}
		if !it.loadDataBlock() {
			return
		}
		it.data.First()
	}
}

// Valid implements iterator.Iterator.
func (it *Iter) Valid() bool { return it.data != nil && it.data.Valid() }

// Key implements iterator.Iterator.
func (it *Iter) Key() []byte { return it.data.Key() }

// Value implements iterator.Iterator.
func (it *Iter) Value() []byte { return it.data.Value() }

// Err implements iterator.Iterator.
func (it *Iter) Err() error {
	if it.err != nil {
		return it.err
	}
	if it.data != nil {
		if err := it.data.Err(); err != nil {
			return err
		}
	}
	return it.idx.Err()
}

var _ iterator.Iterator = (*Iter)(nil)
