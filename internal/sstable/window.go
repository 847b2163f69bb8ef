package sstable

import (
	"encoding/binary"
	"errors"
	"math"

	"noblsm/internal/compress"
	"noblsm/internal/keys"
)

// windowBytes is the window rule's size: a data block's window closes at
// the first entry boundary at or past this many bytes from its start
// (RawBlock.Add). A point read that misses the hot tier decodes one
// window of the block, as far as its entry, and the first keys of the
// windows it searches; every window costs the codec a fresh start, so
// the stored bytes grow as windows shrink. DESIGN.md §10 has the sweep
// that chose it.
const windowBytes = 2 << 10

// window is the window rule's size for data blocks stored under c, 0
// for one window a block. Only MaxCompression windows its data blocks:
// a codec ladder stores the bottom levels, where data settles and point
// reads land, with it, while the upper levels' FastCompression blocks
// are rewritten by the next compaction through them, so windows there
// would add stored bytes to every rewrite and save few decodes
// (DESIGN.md §10).
func (c Compression) window() int {
	if c == MaxCompression {
		return windowBytes
	}
	return 0
}

// An encoded block payload is stored in windows:
//
//	payload := uvarint(k) uvarint(len_1) ... uvarint(len_k) window_1 ... window_k
//
// k ≥ 1, and window i is one compress.Encode stream of len_i bytes.
// Decoded one after another, the windows are the block image. A
// MaxCompression data block's windows start at restart points
// (RawBlock.Add); every other block is one window.

// errWindows reports a window directory that no encoder wrote.
var errWindows = errors.New("malformed window directory")

// encodeWindows encodes contents at lv as windows starting at starts
// (offsets in contents after 0, increasing) into dst's storage, when it
// has the capacity, and returns the payload with room for the block
// trailer after it.
func encodeWindows(dst, contents []byte, starts []int, lv compress.Level) []byte {
	k := len(starts) + 1
	end := func(i int) int {
		if i < len(starts) {
			return starts[i]
		}
		return len(contents)
	}
	// The windows are encoded behind room for the widest directory,
	// then moved down to the directory's end.
	reserve := binary.MaxVarintLen64 * (k + 1)
	need := reserve + blockTrailerLen
	for i, from := 0, 0; i < k; i++ {
		need += compress.MaxEncodedLen(end(i) - from)
		from = end(i)
	}
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	out := dst[:reserve]
	var small [16]int
	lens := small[:0]
	for i, from := 0, 0; i < k; i++ {
		w := compress.Encode(out[len(out):], contents[from:end(i)], lv)
		out = out[:len(out)+len(w)]
		lens = append(lens, len(w))
		from = end(i)
	}
	dir := binary.AppendUvarint(dst[:0], uint64(k))
	for _, l := range lens {
		dir = binary.AppendUvarint(dir, uint64(l))
	}
	return dst[:len(dir)+copy(dst[len(dir):], out[reserve:])]
}

// windowDir is a windowed payload's directory, taken a window at a
// time: k windows are left, their encoded lengths in lens and their
// bytes in body.
type windowDir struct {
	k          int
	lens, body []byte
}

// parseDir checks payload's window directory: at least one window, and
// encoded lengths that cover the windows' bytes exactly.
func parseDir(payload []byte) (windowDir, error) {
	u, n := binary.Uvarint(payload)
	// Every window takes a byte of the directory and one of its own.
	if n <= 0 || u == 0 || u > uint64(len(payload)-n)/2 {
		return windowDir{}, errWindows
	}
	lens := payload[n:]
	p, total := 0, 0
	for range u {
		l, m := binary.Uvarint(lens[p:])
		if m <= 0 || l == 0 || l > uint64(len(payload)) {
			return windowDir{}, errWindows
		}
		p, total = p+m, total+int(l)
	}
	if body := lens[p:]; total == len(body) {
		return windowDir{k: int(u), lens: lens[:p], body: body}, nil
	}
	return windowDir{}, errWindows
}

// next takes the next window off d: its encoded bytes and the length
// they decode to.
func (d *windowDir) next() (src []byte, n int, err error) {
	l, m := binary.Uvarint(d.lens)
	src, d.lens, d.body = d.body[:l], d.lens[m:], d.body[l:]
	d.k--
	n, err = compress.DecodedLen(src)
	return src, n, err
}

// sizeImage parses payload's directory and returns it with a buffer
// for the image its windows decode to: dst, when it has the capacity.
func sizeImage(dst, payload []byte) (windowDir, []byte, error) {
	d, err := parseDir(payload)
	if err != nil {
		return d, nil, err
	}
	n := 0
	for walk := d; walk.k > 0; {
		_, l, err := walk.next()
		if err != nil {
			return d, nil, err
		}
		n += l
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	return d, dst[:n], nil
}

// decodeWindows decodes a windowed payload whole into dst, reused when
// it has the capacity for the image.
func decodeWindows(dst, payload []byte) ([]byte, error) {
	d, dst, err := sizeImage(dst, payload)
	if err != nil {
		return nil, err
	}
	for start := 0; d.k > 0; {
		src, n, _ := d.next() // sizeImage read every header
		if _, err := compress.Decode(dst[start:start:start+n], src); err != nil {
			return nil, err
		}
		start += n
	}
	return dst, nil
}

// compareUserKeys orders internal keys by user key alone: the order a
// point read searches a data block's windows in, since RawBlock.Add
// keeps each user key's versions in one window.
func compareUserKeys(a, b []byte) int {
	return keys.CompareUser(keys.UserKey(a), keys.UserKey(b))
}

// windowed is a windowed payload a point read decodes piece by piece:
// the block.Source of block.Reader.SeekPrefix. The windows decode into
// their places in one image, so offsets count from the block's start,
// and a Seek's position survives the decode of the rest (all).
type windowed struct {
	image   []byte
	wins    []window
	decoded int // bytes decoded so far, over all windows
}

// window is one window of a windowed payload.
type window struct {
	start, end int // where its bytes lie in the image
	out        int // how many of them are decoded
	src        []byte
	z          compress.Decoder
}

// reset parses payload's directory and readies its windows to decode
// into dst, reused when it has the capacity for the image. It decodes
// nothing yet and returns the image's length.
func (w *windowed) reset(dst, payload []byte) (int, error) {
	w.release()
	d, image, err := sizeImage(dst, payload)
	if err != nil {
		return 0, err
	}
	wins := w.wins
	for start := 0; d.k > 0; {
		src, n, _ := d.next() // sizeImage read every header
		wins = append(wins, window{start: start, end: start + n, src: src})
		// The header parsed above: this cannot fail.
		wins[len(wins)-1].z.Reset(image[start:start:start+n], src)
		start += n
	}
	w.image, w.wins = image, wins
	return len(image), nil
}

// release forgets the payload and the image, keeping the windows'
// storage.
func (w *windowed) release() {
	clear(w.wins)
	*w = windowed{wins: w.wins[:0]}
}

// Windows implements block.Source.
func (w *windowed) Windows() int { return len(w.wins) }

// Window implements block.Source.
func (w *windowed) Window(i int) (start, end int) { return w.wins[i].start, w.wins[i].end }

// Fill implements block.Source.
func (w *windowed) Fill(i, limit int) ([]byte, error) {
	win := &w.wins[i]
	out, err := win.z.Fill(limit - win.start)
	if err != nil {
		return nil, err
	}
	w.decoded += len(out) - win.out
	win.out = len(out)
	return w.image[:win.start+len(out)], nil
}

// all decodes what is left of every window and returns the image.
func (w *windowed) all() ([]byte, error) {
	for i := range w.wins {
		if _, err := w.Fill(i, math.MaxInt); err != nil {
			return nil, err
		}
	}
	return w.image, nil
}
