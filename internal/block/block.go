// Package block implements the sorted key/value block format shared by
// SSTable data and index blocks, following LevelDB: entries are
// prefix-compressed against their predecessor, with restart points
// (full keys) every restartInterval entries; the block ends with the
// restart-offset array and its length.
//
// Entry encoding:
//
//	shared   varint  // bytes shared with the previous key
//	unshared varint  // bytes unique to this key
//	vlen     varint  // value length
//	key[shared:]     // unshared key suffix
//	value
//
// A reader that has only the front of an image — a compressed block
// decoded as far as a point read needs — can still find the end of the
// entries without the restart array: the array follows the last entry,
// and its first word is always 0, the offset of the first entry. Read
// as an entry, those four zero bytes say shared = unshared = 0, a key
// of no bytes, and no key a block holds for an SSTable is empty (every
// internal key carries its 8-byte trailer). SeekPrefix stops there.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Compare is the key ordering used by a block (internal-key order for
// data/index blocks).
type Compare func(a, b []byte) int

// Builder accumulates sorted entries into the block wire format.
type Builder struct {
	restartInterval int
	buf             []byte
	restarts        []uint32
	counter         int
	lastKey         []byte
	entries         int
}

// NewBuilder returns a builder with the given restart interval
// (LevelDB uses 16 for data blocks and 1 for index blocks).
func NewBuilder(restartInterval int) *Builder {
	if restartInterval < 1 {
		restartInterval = 1
	}
	return &Builder{
		restartInterval: restartInterval,
		restarts:        []uint32{0},
	}
}

// Add appends an entry; keys must arrive in strictly increasing order.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// EstimatedSize reports the current encoded size including the restart
// trailer.
func (b *Builder) EstimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Entries reports the number of entries added.
func (b *Builder) Entries() int { return b.entries }

// LastKey returns the key added last (valid until Reset).
func (b *Builder) LastKey() []byte { return b.lastKey }

// Empty reports whether nothing has been added.
func (b *Builder) Empty() bool { return b.entries == 0 }

// Finish appends the restart array and returns the completed block.
// The builder must be Reset before reuse.
func (b *Builder) Finish() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// Reset clears the builder for a new block.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = append(b.restarts[:0], 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

// ErrBadBlock reports a malformed block image.
var ErrBadBlock = errors.New("block: malformed block")

// Reader decodes a block image in place: it keeps the image and reads
// restart offsets from the image's own trailer, so parsing a block
// allocates nothing.
type Reader struct {
	entries  []byte // entry region
	restarts []byte // restart array: one little-endian uint32 per restart
	cmp      Compare
}

// NewReader parses a block produced by Builder.
func NewReader(data []byte, cmp Compare) (*Reader, error) {
	r := new(Reader)
	if err := r.Init(data, cmp); err != nil {
		return nil, err
	}
	return r, nil
}

// Init parses data into r, replacing what r held. Every restart
// offset is checked here, so lookups trust them.
func (r *Reader) Init(data []byte, cmp Compare) error {
	if len(data) < 4 {
		return fmt.Errorf("%w: %d bytes", ErrBadBlock, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	trailer := 4 * (n + 1)
	if n < 1 || trailer > len(data) {
		return fmt.Errorf("%w: restart count %d", ErrBadBlock, n)
	}
	entryEnd := len(data) - trailer
	restarts := data[entryEnd : len(data)-4]
	for i := 0; i < n; i++ {
		if off := binary.LittleEndian.Uint32(restarts[4*i:]); int(off) > entryEnd {
			return fmt.Errorf("%w: restart offset %d beyond entries", ErrBadBlock, off)
		}
	}
	*r = Reader{entries: data[:entryEnd], restarts: restarts, cmp: cmp}
	return nil
}

// restart returns the offset of restart point i.
func (r *Reader) restart(i int) int {
	return int(binary.LittleEndian.Uint32(r.restarts[4*i:]))
}

// CutBy reports whether a Builder with restartInterval, fed r's entries
// in order and cut as soon as its EstimatedSize reaches size, would
// make exactly this block: the restart points lie where the interval
// puts them, and the estimate first reaches size at the last entry.
// Keys are not compared; a Builder shares the longest prefix it can,
// and so does every block it made.
func (r *Reader) CutBy(restartInterval, size int) bool {
	n := len(r.restarts) / 4
	if len(r.entries)+4*n+4 < size {
		return false
	}
	entries, last := 0, 0
	for off := 0; off < len(r.entries); entries++ {
		if entries%restartInterval == 0 {
			if i := entries / restartInterval; i >= n || r.restart(i) != off {
				return false
			}
		}
		_, p, unshared, vlen, ok := r.header(off)
		if !ok {
			return false
		}
		last, off = off, p+int(unshared)+int(vlen)
	}
	if entries == 0 || (entries+restartInterval-1)/restartInterval != n {
		return false
	}
	// What the estimate read before the last entry went in.
	before := last + 4*((entries-1+restartInterval-1)/restartInterval) + 4
	return entries == 1 || before < size
}

// Iter iterates a block. The zero position is before the first entry.
type Iter struct {
	r       *Reader
	off     int // offset of the next entry to decode
	key     []byte
	value   []byte
	valid   bool
	corrupt error
}

// NewIter returns an iterator over the block.
func (r *Reader) NewIter() *Iter {
	it := new(Iter)
	r.ResetIter(it)
	return it
}

// ResetIter points it at r, before the first entry, clearing its
// position and any error but keeping the key buffer it grew: a cursor
// that walks many blocks decodes into one buffer.
func (r *Reader) ResetIter(it *Iter) {
	*it = Iter{r: r, key: it.key[:0]}
}

// header decodes the three varints that open the entry at off and
// returns the shared-prefix length, the offset p of the unshared key
// bytes, and their and the value's length, bounds-checked against the
// entry region. ok is false on a malformed entry; p is 0 only when the
// varints are.
func (r *Reader) header(off int) (shared uint64, p int, unshared, vlen uint64, ok bool) {
	data := r.entries
	var n1, n2, n3 int
	if off+2 < len(data) && data[off]|data[off+1] < 0x80 {
		// Key lengths under 128 bytes: one byte each.
		shared, unshared, n1, n2 = uint64(data[off]), uint64(data[off+1]), 1, 1
	} else {
		if shared, n1 = binary.Uvarint(data[off:]); n1 <= 0 {
			return 0, 0, 0, 0, false
		}
		if unshared, n2 = binary.Uvarint(data[off+n1:]); n2 <= 0 {
			return 0, 0, 0, 0, false
		}
	}
	if vlen, n3 = binary.Uvarint(data[off+n1+n2:]); n3 <= 0 {
		return 0, 0, 0, 0, false
	}
	p = off + n1 + n2 + n3
	// Compared as uint64, before any conversion: a hostile length near
	// 2^63 would wrap an int sum negative and pass a check made after.
	rest := uint64(len(data) - p)
	return shared, p, unshared, vlen, unshared <= rest && vlen <= rest-unshared
}

// decodeAt decodes the entry at off, using key as the shared-prefix
// context, and returns the offset past the entry.
func (it *Iter) decodeAt(off int) int {
	shared, p, unshared, vlen, ok := it.r.header(off)
	if !ok || shared > uint64(len(it.key)) {
		it.fail(off)
		return -1
	}
	end := p + int(unshared)
	data := it.r.entries
	it.key = append(it.key[:shared], data[p:end]...)
	it.value = data[end : end+int(vlen)]
	return end + int(vlen)
}

// restartKey returns the key of the entry at restart point i where it
// lies in the block: a restart entry shares nothing with its
// predecessor, so its key needs no assembling.
func (it *Iter) restartKey(i int) ([]byte, bool) {
	off := it.r.restart(i)
	shared, p, unshared, _, ok := it.r.header(off)
	if !ok || shared != 0 {
		it.fail(off)
		return nil, false
	}
	return it.r.entries[p : p+int(unshared)], true
}

func (it *Iter) fail(off int) {
	it.valid = false
	it.corrupt = fmt.Errorf("%w: bad entry at %d", ErrBadBlock, off)
}

// First positions at the first entry.
func (it *Iter) First() {
	it.key = it.key[:0]
	it.off = 0
	it.valid = false
	if len(it.r.entries) == 0 {
		return
	}
	if next := it.decodeAt(0); next >= 0 {
		it.off = next
		it.valid = true
	}
}

// Seek positions at the first entry with key >= target.
func (it *Iter) Seek(target []byte) {
	// Binary-search restart points for the last restart whose key is
	// < target, comparing the restart keys in place, then scan forward.
	lo, hi := 0, len(it.r.restarts)/4-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		k, ok := it.restartKey(mid)
		if !ok {
			return
		}
		if it.r.cmp(k, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	off := it.r.restart(lo)
	for off < len(it.r.entries) {
		next := it.decodeAt(off)
		if next < 0 {
			return
		}
		if it.r.cmp(it.key, target) >= 0 {
			it.off = next
			it.valid = true
			return
		}
		off = next
	}
	it.valid = false
}

// A Source yields a block image front to back: Fill returns at least
// its first limit bytes, or all of it when limit reaches past its end,
// and bytes it has returned never change afterwards.
type Source interface {
	Fill(limit int) ([]byte, error)
}

// maxHeaderLen bounds the three varints that open an entry.
const maxHeaderLen = 3 * binary.MaxVarintLen64

// SeekPrefix is Init and Seek for an image src yields a piece at a
// time, asking src for no more than the end of the entry found: it
// scans entry by entry from offset 0, always a restart. r then holds
// that prefix only, and it must be re-Init with the whole image (it
// keeps its position) before it moves on. SeekPrefix reports false,
// leaving r and it unusable, when the prefix cannot decide: at the end
// of the entries (see the package comment), a malformed header or a
// failure of src. The caller then takes the image through Init and
// Seek, whose result stands.
func (r *Reader) SeekPrefix(it *Iter, src Source, target []byte, cmp Compare) bool {
	*r = Reader{cmp: cmp}
	r.ResetIter(it)
	for off := 0; ; off = it.off {
		data, err := src.Fill(off + maxHeaderLen)
		if err != nil {
			return false
		}
		r.entries = data
		shared, p, unshared, vlen, ok := r.header(off)
		if !ok {
			// The entry may just end past what src has yielded so far.
			if p == 0 || unshared|vlen >= 1<<30 {
				return false
			}
			if data, err = src.Fill(p + int(unshared+vlen)); err != nil {
				return false
			}
			r.entries = data
			if shared, p, unshared, vlen, ok = r.header(off); !ok {
				return false
			}
		}
		if shared|unshared == 0 || shared > uint64(len(it.key)) {
			return false // the end of the entries, or a malformed entry
		}
		end := p + int(unshared)
		it.key = append(it.key[:shared], data[p:end]...)
		it.value = data[end : end+int(vlen)]
		it.off = end + int(vlen)
		if cmp(it.key, target) >= 0 {
			it.valid = true
			return true
		}
	}
}

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.valid {
		return
	}
	if it.off >= len(it.r.entries) {
		it.valid = false
		return
	}
	if next := it.decodeAt(it.off); next >= 0 {
		it.off = next
	}
}

// Valid reports whether the iterator is at an entry.
func (it *Iter) Valid() bool { return it.valid }

// Err reports a corruption encountered while iterating.
func (it *Iter) Err() error { return it.corrupt }

// Key returns the current key; the slice is reused across Next calls.
func (it *Iter) Key() []byte { return it.key }

// Value returns the current value; it aliases the block image.
func (it *Iter) Value() []byte { return it.value }
