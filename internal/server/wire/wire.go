// Package wire is the request half of a length-prefixed binary
// protocol: six request opcodes, varint-prefixed byte strings, no
// negotiation. The network front-end that spoke it is retired; the
// benchmark times its PUT encoder and its frame and request decoders
// as a per-layer probe. The design constraints, in order:
//
//  1. Pipelining. A stream may carry any number of frames back to
//     back, each with its own request id.
//  2. Hostile input never crashes the decoder. Every length is
//     bounds-checked against the frame it came from and against
//     MaxFrameBody before any allocation sized by it; FuzzFrameDecode
//     keeps it that way.
//  3. Zero interpretation in the framing layer. A frame is
//     (op, request id, body); the body codecs are separate functions,
//     so a router can move frames without understanding them.
//
// Frame layout (little-endian):
//
//	uint32  body length N (excludes this header)
//	uint8   opcode
//	uint64  request id
//	N bytes body
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is a frame opcode.
type Op uint8

const (
	OpGet      Op = 1
	OpPut      Op = 2
	OpDelete   Op = 3
	OpMultiGet Op = 4
	OpScan     Op = 5
	OpStats    Op = 6
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpMultiGet:
		return "MULTIGET"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// valid reports whether o is a known request opcode.
func (o Op) valid() bool { return o >= OpGet && o <= OpStats }

// MaxFrameBody caps a frame body. Large enough for a full MultiGet
// batch of 1 KB values; small enough that a malicious length prefix
// cannot make the server allocate unboundedly.
const MaxFrameBody = 16 << 20

// headerSize is the fixed frame header: u32 length + u8 op + u64 id.
const headerSize = 4 + 1 + 8

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBody")
	ErrBadOp         = errors.New("wire: unknown opcode")
	ErrTruncated     = errors.New("wire: truncated body")
)

// Frame is one decoded frame: opcode, request id, raw body. Body
// aliases the read buffer passed to ReadFrame and is only valid until
// the next ReadFrame on that reader.
type Frame struct {
	Op   Op
	ID   uint64
	Body []byte
}

// AppendFrame appends a complete frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, op Op, id uint64, body []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	hdr[4] = byte(op)
	binary.LittleEndian.PutUint64(hdr[5:13], id)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// ReadFrame reads one frame from r, reusing buf for the body when it
// fits. It returns the frame, the (possibly grown) buffer for reuse,
// and an error: io.EOF cleanly between frames, io.ErrUnexpectedEOF for
// a torn frame, ErrFrameTooLarge for a hostile length. ErrBadOp comes
// with the whole frame consumed and returned: the length precedes the
// opcode, so the stream is still at a frame boundary and the caller
// may answer the frame and read on.
func ReadFrame(r *bufio.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		// Clean EOF only at a frame boundary's first byte.
		return Frame{}, buf, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrameBody {
		return Frame{}, buf, ErrFrameTooLarge
	}
	op := Op(hdr[4])
	id := binary.LittleEndian.Uint64(hdr[5:13])
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f := Frame{Op: op, ID: id, Body: body}
	if !op.valid() {
		return f, buf, ErrBadOp
	}
	return f, buf, nil
}

// ---------------------------------------------------------------------
// Body codecs — byte strings are uvarint-length-prefixed. Every reader
// validates lengths against the remaining body before allocating.

// appendBytes appends uvarint(len(b)) + b.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readBytes consumes one length-prefixed byte string from b.
func readBytes(b []byte) (s, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, ErrTruncated
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}

// Request is a decoded request body. Fields are set per opcode:
// Key (GET/DELETE), Key+Value (PUT), Keys (MULTIGET),
// Shard+Start+Limit (SCAN); STATS has no payload.
// All byte slices alias the frame body.
type Request struct {
	Op    Op
	ID    uint64
	Key   []byte
	Value []byte
	Keys  [][]byte
	Shard uint32
	Start []byte
	Limit uint32
}

// AppendGet appends a GET frame: body = key (raw; the whole body is
// the key, no length prefix needed).
func AppendGet(dst []byte, id uint64, key []byte) []byte {
	return AppendFrame(dst, OpGet, id, key)
}

// AppendDelete appends a DELETE frame: body = key.
func AppendDelete(dst []byte, id uint64, key []byte) []byte {
	return AppendFrame(dst, OpDelete, id, key)
}

// AppendPut appends a PUT frame: body = len(key) key value(rest).
func AppendPut(dst []byte, id uint64, key, value []byte) []byte {
	body := make([]byte, 0, binary.MaxVarintLen64+len(key)+len(value))
	body = appendBytes(body, key)
	body = append(body, value...)
	return AppendFrame(dst, OpPut, id, body)
}

// AppendMultiGet appends a MULTIGET frame: body = uvarint(n) then n
// length-prefixed keys.
func AppendMultiGet(dst []byte, id uint64, keys [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, k := range keys {
		size += binary.MaxVarintLen64 + len(k)
	}
	body := make([]byte, 0, size)
	body = binary.AppendUvarint(body, uint64(len(keys)))
	for _, k := range keys {
		body = appendBytes(body, k)
	}
	return AppendFrame(dst, OpMultiGet, id, body)
}

// AppendScan appends a SCAN frame targeting one shard: body =
// u32 shard, len(start) start, u32 limit.
func AppendScan(dst []byte, id uint64, shard uint32, start []byte, limit uint32) []byte {
	body := make([]byte, 0, 8+binary.MaxVarintLen64+len(start))
	body = binary.LittleEndian.AppendUint32(body, shard)
	body = appendBytes(body, start)
	body = binary.LittleEndian.AppendUint32(body, limit)
	return AppendFrame(dst, OpScan, id, body)
}

// AppendStats appends a STATS frame (empty body).
func AppendStats(dst []byte, id uint64) []byte {
	return AppendFrame(dst, OpStats, id, nil)
}

// ParseRequest decodes a frame's body by opcode. The returned
// Request's slices alias f.Body.
func ParseRequest(f Frame) (Request, error) {
	req := Request{Op: f.Op, ID: f.ID}
	body := f.Body
	switch f.Op {
	case OpGet, OpDelete:
		req.Key = body
	case OpPut:
		key, rest, err := readBytes(body)
		if err != nil {
			return Request{}, fmt.Errorf("wire: PUT: %w", err)
		}
		req.Key, req.Value = key, rest
	case OpMultiGet:
		n, w := binary.Uvarint(body)
		// A key costs at least one length byte, so n can never exceed
		// the remaining body — reject before allocating n slots.
		if w <= 0 || n > uint64(len(body)-w) {
			return Request{}, fmt.Errorf("wire: MULTIGET count: %w", ErrTruncated)
		}
		body = body[w:]
		req.Keys = make([][]byte, 0, n)
		for i := uint64(0); i < n; i++ {
			k, rest, err := readBytes(body)
			if err != nil {
				return Request{}, fmt.Errorf("wire: MULTIGET key %d: %w", i, err)
			}
			req.Keys = append(req.Keys, k)
			body = rest
		}
	case OpScan:
		if len(body) < 4 {
			return Request{}, fmt.Errorf("wire: SCAN shard: %w", ErrTruncated)
		}
		req.Shard = binary.LittleEndian.Uint32(body[:4])
		start, rest, err := readBytes(body[4:])
		if err != nil {
			return Request{}, fmt.Errorf("wire: SCAN start: %w", err)
		}
		if len(rest) < 4 {
			return Request{}, fmt.Errorf("wire: SCAN limit: %w", ErrTruncated)
		}
		req.Start, req.Limit = start, binary.LittleEndian.Uint32(rest[:4])
	case OpStats:
		// No payload.
	default:
		return Request{}, ErrBadOp
	}
	return req, nil
}
