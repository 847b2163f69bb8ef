// Package keys defines the internal key encoding of the LSM-tree,
// matching LevelDB's format: an internal key is the user key followed
// by an 8-byte little-endian trailer packing a 56-bit sequence number
// and an 8-bit kind (value or deletion tombstone).
//
// Ordering: internal keys sort by user key ascending, then by sequence
// number descending (newer first), then by kind descending. This puts
// the most recent version of a user key first in any sorted stream.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind discriminates live values from deletion tombstones.
type Kind uint8

const (
	// KindDelete marks a tombstone.
	KindDelete Kind = 0
	// KindValue marks a live key-value pair.
	KindValue Kind = 1
	// KindSeek is the kind used when constructing seek targets: it
	// is the largest kind so that seeking positions at the first
	// entry with sequence <= the snapshot.
	KindSeek = KindValue
)

func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "del"
	case KindValue:
		return "val"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// SeqNum is a 56-bit global write sequence number.
type SeqNum uint64

// MaxSeqNum is the largest representable sequence number, used when
// seeking for the latest visible version.
const MaxSeqNum SeqNum = (1 << 56) - 1

// TrailerLen is the encoded length of the seq/kind trailer.
const TrailerLen = 8

// packTrailer combines a sequence number and kind.
func packTrailer(seq SeqNum, kind Kind) uint64 {
	return uint64(seq)<<8 | uint64(kind)
}

// MakeInternalKey appends the internal encoding of (ukey, seq, kind)
// to dst and returns the extended slice.
func MakeInternalKey(dst []byte, ukey []byte, seq SeqNum, kind Kind) []byte {
	dst = append(dst, ukey...)
	var tr [TrailerLen]byte
	binary.LittleEndian.PutUint64(tr[:], packTrailer(seq, kind))
	return append(dst, tr[:]...)
}

// ParseInternalKey splits an internal key into its components. ok is
// false if ikey is too short or carries an invalid kind.
func ParseInternalKey(ikey []byte) (ukey []byte, seq SeqNum, kind Kind, ok bool) {
	if len(ikey) < TrailerLen {
		return nil, 0, 0, false
	}
	n := len(ikey) - TrailerLen
	tr := binary.LittleEndian.Uint64(ikey[n:])
	kind = Kind(tr & 0xff)
	if kind > KindValue {
		return nil, 0, 0, false
	}
	return ikey[:n], SeqNum(tr >> 8), kind, true
}

// UserKey returns the user-key prefix of an internal key. It panics on
// keys shorter than the trailer.
func UserKey(ikey []byte) []byte {
	if len(ikey) < TrailerLen {
		panic("keys: internal key too short")
	}
	return ikey[:len(ikey)-TrailerLen]
}

// Trailer returns the packed trailer of an internal key.
func Trailer(ikey []byte) uint64 {
	return binary.LittleEndian.Uint64(ikey[len(ikey)-TrailerLen:])
}

// CompareUser compares two user keys bytewise.
func CompareUser(a, b []byte) int { return bytes.Compare(a, b) }

// CompareInternal implements the internal-key ordering.
func CompareInternal(a, b []byte) int {
	if c := bytes.Compare(UserKey(a), UserKey(b)); c != 0 {
		return c
	}
	// Larger trailer (newer sequence) sorts first.
	ta, tb := Trailer(a), Trailer(b)
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	default:
		return 0
	}
}

// String renders an internal key for debugging.
func String(ikey []byte) string {
	ukey, seq, kind, ok := ParseInternalKey(ikey)
	if !ok {
		return fmt.Sprintf("badkey(%x)", ikey)
	}
	return fmt.Sprintf("%q@%d#%v", ukey, seq, kind)
}

// AppendSeparatorInternal appends to dst a short internal key k with
// a <= k < b in internal order, used as an index-block separator, and
// returns the extended slice. a is an internal key; b is the first
// internal key of the next block (nil at the end of the table).
func AppendSeparatorInternal(dst, a, b []byte) []byte {
	if b == nil {
		return AppendSuccessorInternal(dst, a)
	}
	au, bu := UserKey(a), UserKey(b)
	n := len(au)
	if len(bu) < n {
		n = len(bu)
	}
	i := 0
	for i < n && au[i] == bu[i] {
		i++
	}
	// au[:i] with its last byte bumped sorts strictly between the two
	// user keys when there is room below bu[i]; it is worth using only
	// if strictly shorter than au.
	if i+1 < len(au) && i < n && au[i] < bu[i] && au[i]+1 < bu[i] {
		return appendBumped(dst, au[:i+1])
	}
	return append(dst, a...)
}

// AppendSuccessorInternal appends to dst a short internal key >= a
// sharing no obligations with later keys (used for the last index
// entry) and returns the extended slice.
func AppendSuccessorInternal(dst, a []byte) []byte {
	au := UserKey(a)
	for i, c := range au {
		if c != 0xff {
			if i+1 < len(au) {
				return appendBumped(dst, au[:i+1])
			}
			break
		}
	}
	return append(dst, a...)
}

// appendBumped appends prefix with its last byte incremented, paired
// with the maximal trailer so the key still sorts >= every internal key
// whose user key has that prefix.
func appendBumped(dst, prefix []byte) []byte {
	dst = append(dst, prefix...)
	dst[len(dst)-1]++
	return MakeInternalKey(dst, nil, MaxSeqNum, KindSeek)
}
