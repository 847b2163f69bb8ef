package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// retiredFrames are the requests of the four opcodes (7–10) that
// shipped checkpoints and tailed the WAL, byte for byte as their
// deleted builders produced them: CKPT_BEGIN(shard 1),
// CKPT_FETCH(shard 1, checkpoint 3, "000005.ldb", offset 4096, max
// 64 KiB), CKPT_RELEASE(shard 1, checkpoint 3) and WAL_TAIL(shard 0,
// log 12, offset 512, max 1 MiB). They are hostile input now.
var retiredFrames = [][]byte{
	[]byte("\x04\x00\x00\x00" + "\x07" + "\x07\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x00\x00\x00"),
	[]byte("\x23\x00\x00\x00" + "\x08" + "\x08\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x00\x00\x00" + "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x0a000005.ldb" +
		"\x00\x10\x00\x00\x00\x00\x00\x00" + "\x00\x00\x01\x00"),
	[]byte("\x0c\x00\x00\x00" + "\x09" + "\x09\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x00\x00\x00" + "\x03\x00\x00\x00\x00\x00\x00\x00"),
	[]byte("\x18\x00\x00\x00" + "\x0a" + "\x0a\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00" + "\x0c\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x02\x00\x00\x00\x00\x00\x00" + "\x00\x00\x10\x00"),
}

func roundTripFrame(t *testing.T, raw []byte) (Frame, error) {
	t.Helper()
	f, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)), nil)
	return f, err
}

func TestFrameRoundTrip(t *testing.T) {
	raw := AppendGet(nil, 7, []byte("the-key"))
	raw = AppendPut(raw, 8, []byte("k2"), []byte("v2"))
	raw = AppendMultiGet(raw, 9, [][]byte{[]byte("a"), nil, []byte("ccc")})
	raw = AppendScan(raw, 10, 3, []byte("start"), 128)
	raw = AppendStats(raw, 11)
	raw = AppendDelete(raw, 12, []byte("gone"))

	br := bufio.NewReader(bytes.NewReader(raw))
	var buf []byte
	var frames []Frame
	for {
		f, b, err := ReadFrame(br, buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		buf = b
		// Copy: Body aliases buf which the next ReadFrame reuses.
		f.Body = append([]byte(nil), f.Body...)
		frames = append(frames, f)
	}
	if len(frames) != 6 {
		t.Fatalf("got %d frames, want 6", len(frames))
	}

	get, err := ParseRequest(frames[0])
	if err != nil || string(get.Key) != "the-key" || get.ID != 7 {
		t.Fatalf("GET decoded %+v, %v", get, err)
	}
	put, err := ParseRequest(frames[1])
	if err != nil || string(put.Key) != "k2" || string(put.Value) != "v2" {
		t.Fatalf("PUT decoded %+v, %v", put, err)
	}
	mg, err := ParseRequest(frames[2])
	if err != nil || len(mg.Keys) != 3 || string(mg.Keys[0]) != "a" ||
		len(mg.Keys[1]) != 0 || string(mg.Keys[2]) != "ccc" {
		t.Fatalf("MULTIGET decoded %+v, %v", mg, err)
	}
	sc, err := ParseRequest(frames[3])
	if err != nil || sc.Shard != 3 || string(sc.Start) != "start" || sc.Limit != 128 {
		t.Fatalf("SCAN decoded %+v, %v", sc, err)
	}
	if _, err := ParseRequest(frames[4]); err != nil {
		t.Fatalf("STATS: %v", err)
	}
	del, err := ParseRequest(frames[5])
	if err != nil || string(del.Key) != "gone" {
		t.Fatalf("DELETE decoded %+v, %v", del, err)
	}
}

// TestMalformedFrames drives the decoder with hostile headers and
// truncated bodies; every case must fail with a protocol error, never
// a panic or a giant allocation.
func TestMalformedFrames(t *testing.T) {
	huge := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(huge[0:4], MaxFrameBody+1)
	huge[4] = byte(OpGet)

	badOp := make([]byte, headerSize)
	badOp[4] = 0xEE

	torn := AppendPut(nil, 1, []byte("k"), []byte("v"))[:headerSize+1]

	cases := map[string][]byte{
		"oversize length": huge,
		"unknown opcode":  badOp,
		"torn body":       torn,
		"bare header":     make([]byte, 3),
	}
	for name, raw := range cases {
		if _, err := roundTripFrame(t, raw); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}

	// A retired opcode is an unknown one: ReadFrame consumes the frame
	// whole and says so, and ParseRequest refuses the body.
	for _, raw := range retiredFrames {
		f, err := roundTripFrame(t, raw)
		if err != ErrBadOp || f.Op != Op(raw[4]) || f.ID != uint64(raw[4]) || len(f.Body) != len(raw)-headerSize {
			t.Errorf("retired op %d: ReadFrame = %+v, %v, want the whole frame and ErrBadOp", raw[4], f, err)
		}
		if _, err := ParseRequest(f); err != ErrBadOp {
			t.Errorf("retired op %d: ParseRequest = %v, want ErrBadOp", raw[4], err)
		}
	}

	// Truncated request bodies with a valid frame header.
	reqCases := map[string]Frame{
		"put no key":          {Op: OpPut, Body: []byte{0x05}},
		"multiget count lies": {Op: OpMultiGet, Body: []byte{0xFF, 0x01}},
		"multiget torn key":   {Op: OpMultiGet, Body: []byte{2, 1, 'a', 9}},
		"scan no shard":       {Op: OpScan, Body: []byte{1, 2}},
		"scan torn start":     {Op: OpScan, Body: []byte{1, 0, 0, 0, 9, 'a'}},
		"scan no limit":       {Op: OpScan, Body: []byte{1, 0, 0, 0, 1, 'a'}},
	}
	for name, f := range reqCases {
		if _, err := ParseRequest(f); err == nil {
			t.Errorf("%s: parsed successfully", name)
		}
	}
}

// TestCleanEOF: EOF at a frame boundary is io.EOF; inside a header it
// is unexpected.
func TestCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)), nil)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	_, _, err = ReadFrame(bufio.NewReader(bytes.NewReader([]byte{1, 2})), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: %v, want io.ErrUnexpectedEOF", err)
	}
}
