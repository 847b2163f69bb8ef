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

func TestResponseRoundTrip(t *testing.T) {
	// GET value.
	f, err := roundTripFrame(t, AppendGetResponse(nil, 1, []byte("val")))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseResponse(f)
	if err != nil || r.Status != StatusOK || string(r.Value) != "val" {
		t.Fatalf("get resp %+v, %v", r, err)
	}

	// NotFound with empty message.
	f, _ = roundTripFrame(t, AppendStatusResponse(nil, OpGet, 2, StatusNotFound, ""))
	r, err = ParseResponse(f)
	if err != nil || r.Status != StatusNotFound {
		t.Fatalf("notfound resp %+v, %v", r, err)
	}

	// Error with message.
	f, _ = roundTripFrame(t, AppendStatusResponse(nil, OpPut, 3, StatusErr, "boom"))
	r, err = ParseResponse(f)
	if err != nil || r.Status != StatusErr || r.Msg != "boom" {
		t.Fatalf("err resp %+v, %v", r, err)
	}

	// Busy (governor shed) with message — retryable, Msg-carrying.
	f, _ = roundTripFrame(t, AppendStatusResponse(nil, OpPut, 7, StatusBusy, "write stalled"))
	r, err = ParseResponse(f)
	if err != nil || r.Status != StatusBusy || r.Msg != "write stalled" {
		t.Fatalf("busy resp %+v, %v", r, err)
	}
	if s := StatusBusy.String(); s != "busy" {
		t.Fatalf("StatusBusy.String() = %q", s)
	}

	// MultiGet entries.
	entries := []MultiGetEntry{{Found: true, Value: []byte("x")}, {Found: false}, {Found: true, Value: nil}}
	f, _ = roundTripFrame(t, AppendMultiGetResponse(nil, 4, entries))
	r, err = ParseResponse(f)
	if err != nil || len(r.Entries) != 3 || !r.Entries[0].Found ||
		string(r.Entries[0].Value) != "x" || r.Entries[1].Found || !r.Entries[2].Found {
		t.Fatalf("multiget resp %+v, %v", r, err)
	}

	// Scan pairs.
	pairs := []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	f, _ = roundTripFrame(t, AppendScanResponse(nil, 5, pairs))
	r, err = ParseResponse(f)
	if err != nil || len(r.Pairs) != 2 || string(r.Pairs[1].Key) != "b" {
		t.Fatalf("scan resp %+v, %v", r, err)
	}

	// Stats payload.
	f, _ = roundTripFrame(t, AppendStatsResponse(nil, 6, []byte(`{"ok":1}`)))
	r, err = ParseResponse(f)
	if err != nil || string(r.Payload) != `{"ok":1}` {
		t.Fatalf("stats resp %+v, %v", r, err)
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

	// Truncated responses.
	respCases := map[string]Frame{
		"empty body":         {Op: OpGet, Body: nil},
		"bad status":         {Op: OpGet, Body: []byte{99}},
		"multiget count lie": {Op: OpMultiGet, Body: []byte{0, 0xFF, 0x7F}},
		"multiget torn val":  {Op: OpMultiGet, Body: []byte{0, 1, 1, 9}},
		"scan torn pair":     {Op: OpScan, Body: []byte{0, 1, 1, 'a'}},
		"retired op ok":      {Op: 7, Body: []byte("\x00{}")},
	}
	for name, f := range respCases {
		if _, err := ParseResponse(f); err == nil {
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
