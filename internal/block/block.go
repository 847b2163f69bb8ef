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

// Reader decodes a block image.
type Reader struct {
	data     []byte // entry region
	restarts []uint32
	cmp      Compare
}

// NewReader parses a block produced by Builder.
func NewReader(data []byte, cmp Compare) (*Reader, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadBlock, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	trailer := 4 * (n + 1)
	if n < 1 || trailer > len(data) {
		return nil, fmt.Errorf("%w: restart count %d", ErrBadBlock, n)
	}
	entryEnd := len(data) - trailer
	restarts := make([]uint32, n)
	for i := 0; i < n; i++ {
		restarts[i] = binary.LittleEndian.Uint32(data[entryEnd+4*i:])
		if int(restarts[i]) > entryEnd {
			return nil, fmt.Errorf("%w: restart offset %d beyond entries", ErrBadBlock, restarts[i])
		}
	}
	return &Reader{data: data[:entryEnd], restarts: restarts, cmp: cmp}, nil
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
func (r *Reader) NewIter() *Iter { return &Iter{r: r} }

// decodeAt decodes the entry at off, using key as the shared-prefix
// context, and returns the offset past the entry.
func (it *Iter) decodeAt(off int) int {
	data := it.r.data
	shared, n1 := binary.Uvarint(data[off:])
	if n1 <= 0 {
		it.fail(off)
		return -1
	}
	unshared, n2 := binary.Uvarint(data[off+n1:])
	if n2 <= 0 {
		it.fail(off)
		return -1
	}
	vlen, n3 := binary.Uvarint(data[off+n1+n2:])
	if n3 <= 0 {
		it.fail(off)
		return -1
	}
	p := off + n1 + n2 + n3
	// Compared as uint64, before any conversion: a hostile length near
	// 2^63 would wrap an int sum negative and pass a check made after.
	rest := uint64(len(data) - p)
	if shared > uint64(len(it.key)) || unshared > rest || vlen > rest-unshared {
		it.fail(off)
		return -1
	}
	it.key = append(it.key[:shared], data[p:p+int(unshared)]...)
	it.value = data[p+int(unshared) : p+int(unshared)+int(vlen)]
	return p + int(unshared) + int(vlen)
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
	if len(it.r.data) == 0 {
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
	// < target, then scan forward.
	lo, hi := 0, len(it.r.restarts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.key = it.key[:0]
		if it.decodeAt(int(it.r.restarts[mid])) < 0 {
			return
		}
		if it.r.cmp(it.key, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	off := int(it.r.restarts[lo])
	for off < len(it.r.data) {
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

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.valid {
		return
	}
	if it.off >= len(it.r.data) {
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
