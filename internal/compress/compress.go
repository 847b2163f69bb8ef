// Package compress implements the per-block codec used by SSTable
// blocks: a byte-oriented LZ format in the snappy family, written
// against the stdlib only. The format is self-describing — decode
// needs no parameters — while encoding effort is tunable so cold
// levels can spend more CPU for a denser block.
//
// # Wire format
//
//	encoded := uvarint(decodedLen) token*
//	token   := literal | copy
//	literal := byte(L<<1)            L ∈ [1,127] following raw bytes
//	copy    := byte(1 | w<<1 | (m-minMatch)<<2) offset
//	           m ∈ [4,67] is the match length; w selects the offset
//	           width: w=0 → 1 offset byte, w=1 → 2 offset bytes
//	           (little-endian, offset ∈ [1, 65535], within output)
//
// A literal token's length field is never zero, so the zero byte is
// invalid and truncated or bit-flipped inputs fail loudly. The match
// window equals the maximum offset (64 KiB), comfortably wider than
// any SSTable block this tree builds.
package compress

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync"
)

// ErrCorrupt reports an encoded block that cannot have been produced
// by Encode: bad header, token stream running past its bounds, or a
// copy reaching before the start of output.
var ErrCorrupt = errors.New("compress: corrupt input")

const (
	minMatch     = 4
	maxMatch     = minMatch + 63 // 6 length bits per copy token
	maxOffset    = 1 << 16
	maxLiteral   = 127
	minSrcLen    = minMatch + 1 // below this, matching cannot help
	tagLiteral   = 0
	tagCopy      = 1
	shortOffMax  = 255 // offsets that fit the 1-byte copy form
	minSavings   = 8   // Encode-side: don't bother growing dst for less
	headroomDiv  = 16  // require src/16 savings before calling it a win
	maxBlockMiss = 64  // fast level: step acceleration after misses
)

// Level selects encoding effort. Decode is identical for both: the
// format does not record the level.
type Level int

const (
	// LevelFast is the hot-path default: small hash table, skip
	// acceleration over incompressible stretches, greedy matching.
	LevelFast Level = iota
	// LevelMax spends more CPU for ratio: a larger hash table,
	// every position indexed, and a one-step lazy match. Meant for
	// cold levels where blocks are written once and read many times.
	LevelMax
)

const (
	fastBits = 13
	maxBits  = 16
	hashMul  = 2654435761
)

// MaxEncodedLen bounds Encode's output for an n-byte input: the
// header, the worst-case literal framing (one tag per 127 bytes) and
// slack for the final short run.
func MaxEncodedLen(n int) int {
	return binary.MaxVarintLen64 + n + n/maxLiteral + 2
}

// header parses the declared decoded length and its width. A length
// the tokens after it cannot reach — the densest token, a 2-byte copy,
// yields maxMatch bytes — is refused here, before any caller sizes a
// buffer by it.
func header(src []byte) (n, sz int, err error) {
	u, sz := binary.Uvarint(src)
	if sz <= 0 || u > uint64(len(src)-sz)*(maxMatch+1)/2 {
		return 0, 0, ErrCorrupt
	}
	return int(u), sz, nil
}

// DecodedLen reports the decoded size an encoded block declares.
func DecodedLen(src []byte) (int, error) {
	n, _, err := header(src)
	return n, err
}

// The word accessors slice with all three indices: of the forms the
// compiler turns into one move, b[i:i+8:i+8] has the fewest
// instructions around it (two compares; b[i:] adds a pointer mask for
// the empty-slice case), which the kernels' inner loops feel.
func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i : i+4 : i+4])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i : i+8 : i+8])
}

func store64(b []byte, i int, v uint64) {
	binary.LittleEndian.PutUint64(b[i:i+8:i+8], v)
}

// A matchTable maps a hash of four bytes to the position Encode last
// saw them at. Tables are pooled, not cleared: a slot holds position +
// 1 + the base of the call that wrote it, every call's base lies above
// all slots written before it, and a slot at or below the base reads
// as empty — so what a table held before a call cannot reach the
// call's output. LevelFast uses the first 1<<fastBits slots only.
type matchTable struct {
	slot [1 << maxBits]uint32
	base uint64
}

var matchTables = sync.Pool{New: func() any { return new(matchTable) }}

// Encode compresses src, appending nothing: the result is dst[:m] if
// dst has capacity MaxEncodedLen(len(src)), else a fresh slice. The
// output always decodes to exactly src, even when src is
// incompressible (it degrades to literal runs).
func Encode(dst, src []byte, level Level) []byte {
	if cap(dst) < MaxEncodedLen(len(src)) {
		dst = make([]byte, MaxEncodedLen(len(src)))
	}
	dst = dst[:cap(dst)]
	d := binary.PutUvarint(dst, uint64(len(src)))

	if len(src) < minSrcLen {
		d += emitLiteral(dst[d:], src)
		return dst[:d]
	}

	shift := uint(32 - fastBits)
	if level == LevelMax {
		shift = 32 - maxBits
	}
	t := matchTables.Get().(*matchTable)
	if t.base+uint64(len(src)) > math.MaxUint32 {
		// The slots are about to wrap: start over from a clear table.
		clear(t.slot[:])
		t.base = 0
	}
	base := uint32(t.base)

	s, lit := 0, 0
	limit := len(src) - minMatch
	misses := 0
	for s <= limit {
		// uint16(h) < len(t.slot) needs no bounds check. An empty slot
		// gives a cand at or beyond len(src): base + len(src) does not
		// wrap.
		h := uint16(load32(src, s) * hashMul >> shift)
		cand := int(t.slot[h] - base - 1)
		t.slot[h] = base + uint32(s) + 1
		if cand < s && s-cand < maxOffset && load32(src, cand) == load32(src, s) {
			m := matchLen(src, cand, s)
			if level == LevelMax && s < limit {
				// One-step lazy match: prefer a strictly longer
				// match starting at s+1 when it exists.
				h2 := uint16(load32(src, s+1) * hashMul >> shift)
				cand2 := int(t.slot[h2] - base - 1)
				if cand2 < s+1 && s+1-cand2 < maxOffset && load32(src, cand2) == load32(src, s+1) {
					if m2 := matchLen(src, cand2, s+1); m2 > m {
						s++
						t.slot[h2] = base + uint32(s) + 1
						cand, m = cand2, m2
					}
				}
			}
			// Extend the match backwards into the pending literal:
			// the hash probe lands mid-run more often than not.
			for s > lit && cand > 0 && src[s-1] == src[cand-1] {
				s--
				cand--
				m++
			}
			d += emitLiteral(dst[d:], src[lit:s])
			d += emitCopy(dst[d:], s-cand, m)
			if level == LevelMax {
				for i := s + 1; i < s+m && i <= limit; i++ {
					t.slot[uint16(load32(src, i)*hashMul>>shift)] = base + uint32(i) + 1
				}
			}
			s += m
			lit = s
			misses = 0
			continue
		}
		if level == LevelFast {
			// Snappy-style acceleration: incompressible stretches
			// step faster instead of hashing every byte.
			misses++
			s += 1 + misses/maxBlockMiss
		} else {
			s++
		}
	}
	d += emitLiteral(dst[d:], src[lit:])
	t.base += uint64(len(src))
	matchTables.Put(t)
	return dst[:d]
}

// Compressible reports whether enc (an Encode result for an n-byte
// input) saves enough over storing n raw bytes to be worth the decode
// on every future read.
func Compressible(enc []byte, n int) bool {
	save := n - len(enc)
	return save >= minSavings && save >= n/headroomDiv
}

// matchLen extends a candidate match: the length of the common prefix
// of src[cand:] and src[s:]. Long matches are not capped here —
// emitCopy splits them across tokens — so this runs to the input end.
func matchLen(src []byte, cand, s int) int {
	n := 0
	for ; s+n+8 <= len(src); n += 8 {
		if x := load64(src, cand+n) ^ load64(src, s+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for s+n < len(src) && src[cand+n] == src[s+n] {
		n++
	}
	return n
}

func emitLiteral(dst, lit []byte) int {
	d := 0
	for len(lit) > 0 {
		n := len(lit)
		if n > maxLiteral {
			n = maxLiteral
		}
		dst[d] = byte(n << 1)
		d++
		d += copy(dst[d:], lit[:n])
		lit = lit[n:]
	}
	return d
}

// emitCopy writes copy tokens covering a match of length m at the
// given offset, splitting matches longer than maxMatch.
func emitCopy(dst []byte, offset, m int) int {
	d := 0
	for m > 0 {
		n := m
		if n > maxMatch {
			n = maxMatch
			// Avoid a trailing runt below minMatch: rebalance the
			// final two tokens.
			if m-n < minMatch && m-n > 0 {
				n = m - minMatch
			}
		}
		if offset <= shortOffMax {
			dst[d] = byte(tagCopy | (n-minMatch)<<2)
			dst[d+1] = byte(offset)
			d += 2
		} else {
			dst[d] = byte(tagCopy | 1<<1 | (n-minMatch)<<2)
			binary.LittleEndian.PutUint16(dst[d+1:], uint16(offset))
			d += 3
		}
		m -= n
	}
	return d
}

// The fast loop of Decode runs while both cursors have slack for its
// widest iteration — one short literal and one copy, each moved in
// whole words — so no length is checked per token inside it.
const (
	shortLiteral = 16                      // literals up to here go as two words
	copySpan     = (maxMatch + 7) &^ 7     // a copy stores whole words: up to this many bytes
	srcSlack     = 1 + shortLiteral + 3    // literal tag, its bytes, a copy tag with 2 offset bytes
	dstSlack     = shortLiteral + copySpan // both stores, overrun included
)

// period describes how a copy at an offset below 8 — an overlapping
// copy, a run with that period — becomes word stores: the low off
// bytes of the word at d-off (mask), replicated to fill a word (mul),
// give the first 8 bytes; later words are then copied from rep*off
// back, the smallest multiple of the period that is at least a word.
// Entry 8 stands for every offset of 8 and more: the word as loaded,
// copied from off back.
var period = [9]struct {
	mask, mul uint64
	rep       int
}{
	1: {1<<8 - 1, 0x0101010101010101, 8},
	2: {1<<16 - 1, 0x0001000100010001, 4},
	3: {1<<24 - 1, 1 | 1<<24 | 1<<48, 3},
	4: {1<<32 - 1, 1 | 1<<32, 2},
	5: {1<<40 - 1, 1 | 1<<40, 2},
	6: {1<<48 - 1, 1 | 1<<48, 2},
	7: {1<<56 - 1, 1 | 1<<56, 2},
	8: {1<<64 - 1, 1, 1},
}

// Decode decompresses src into dst (reused when it has capacity for
// the declared decoded length) and returns the decoded bytes. Any
// malformed input — including every single-bit corruption of a valid
// encoding that changes the token structure — returns ErrCorrupt;
// corruptions that keep the structure valid are caught by the block
// CRC above this layer.
func Decode(dst, src []byte) ([]byte, error) {
	var z Decoder
	n, err := z.Reset(dst, src)
	if err != nil {
		return nil, err
	}
	return z.Fill(n)
}

// A Decoder decodes one encoded block front to back, as far as its
// caller asks. The bytes it has decoded never change afterwards, so a
// caller may read them while asking for more.
type Decoder struct {
	dst, src []byte
	d, s     int // output written, input consumed
}

// Reset starts decoding src into dst (reused when it has capacity for
// the declared decoded length) and returns that length. It decodes
// nothing yet.
func (z *Decoder) Reset(dst, src []byte) (int, error) {
	n, sz, err := header(src)
	if err != nil {
		return 0, err
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	*z = Decoder{dst: dst[:n], src: src, s: sz}
	return n, nil
}

// Fill decodes whole tokens until at least limit bytes are out, or the
// whole block, and returns the decoded prefix. It fails with
// ErrCorrupt exactly when Decode would on the tokens it takes, so a
// failing Fill means a failing Decode, and Fill of the length is Decode.
func (z *Decoder) Fill(limit int) ([]byte, error) {
	dst, src := z.dst, z.src
	limit = min(limit, len(dst))
	fast := min(limit, len(dst)-dstSlack+1) // one turn may overshoot limit
	d, s := z.d, z.s
	for d < limit {
		// Fast loop. Each turn takes an optional short literal and
		// then a copy, without a branch on which token came first: a
		// copy tag reads as a literal of length 0. Stores are whole
		// words and may run past the token's end, into bytes that
		// later tokens overwrite (d must reach len(dst) exactly, so
		// every byte is some token's).
		for d < fast && s+srcSlack <= len(src) {
			tag := int(src[s])
			lit := ^tag & 1
			l := tag >> 1 & -lit
			if uint(l-lit) >= shortLiteral {
				break // a long literal, or the invalid zero tag
			}
			store64(dst, d, load64(src, s+1))
			store64(dst, d+8, load64(src, s+9))
			d += l
			s += l + lit
			tag = int(src[s])
			if tag&tagCopy == 0 {
				continue // a literal after a literal
			}
			m := tag>>2 + minMatch
			w := tag >> 1 & 1
			off := int(binary.LittleEndian.Uint16(src[s+1:])) & (0xff | -w&0xff00)
			s += 2 + w
			if uint(off-1) >= uint(d) {
				return nil, ErrCorrupt // off == 0 || off > d
			}
			k := off - 8
			p := &period[8+k&(k>>63)] // min(off, 8) without the branch min compiles to
			store64(dst, d, load64(dst, d-off)&p.mask*p.mul)
			from := d - off*p.rep
			store64(dst, d+8, load64(dst, from+8))
			for i := 16; i < m; i += 8 {
				store64(dst, d+i, load64(dst, from+i))
			}
			d += m
		}
		if d >= limit {
			break
		}
		if s >= len(src) {
			return nil, ErrCorrupt
		}
		// The careful path takes one token — the last few of every
		// block, and every long literal — checking each length.
		tag := src[s]
		s++
		if tag&tagCopy == 0 {
			l := int(tag >> 1)
			if l == 0 || s+l > len(src) || d+l > len(dst) {
				return nil, ErrCorrupt
			}
			copy(dst[d:], src[s:s+l])
			d += l
			s += l
			continue
		}
		m := int(tag>>2) + minMatch
		var off int
		if tag&(1<<1) == 0 {
			if s >= len(src) {
				return nil, ErrCorrupt
			}
			off = int(src[s])
			s++
		} else {
			if s+2 > len(src) {
				return nil, ErrCorrupt
			}
			off = int(binary.LittleEndian.Uint16(src[s:]))
			s += 2
		}
		if off == 0 || off > d || d+m > len(dst) {
			return nil, ErrCorrupt
		}
		if off >= m {
			copy(dst[d:d+m], dst[d-off:])
		} else {
			for i := 0; i < m; i++ {
				dst[d+i] = dst[d-off+i]
			}
		}
		d += m
	}
	if d == len(dst) && s != len(src) {
		return nil, ErrCorrupt
	}
	z.d, z.s = d, s
	return dst[:d], nil
}
