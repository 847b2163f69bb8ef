package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the full server-side
// decode path — framing, then per-opcode request parsing — exactly as
// a connection handler consumes a socket. The properties: no panics,
// no unbounded allocation (enforced by MaxFrameBody and the
// count-vs-remaining checks), and decode always terminates.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendGet(nil, 1, []byte("key")))
	f.Add(AppendPut(nil, 2, []byte("key"), bytes.Repeat([]byte("v"), 100)))
	f.Add(AppendMultiGet(nil, 3, [][]byte{[]byte("a"), []byte("b")}))
	f.Add(AppendScan(nil, 4, 2, []byte("s"), 10))
	f.Add(AppendStats(nil, 5))
	f.Add(AppendDelete(nil, 6, nil))
	for _, raw := range retiredFrames {
		f.Add(raw)
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 64; i++ { // bound work per input
			fr, b, err := ReadFrame(br, buf)
			if err != nil && err != ErrBadOp {
				if err == io.EOF || err == io.ErrUnexpectedEOF || err == ErrFrameTooLarge {
					return
				}
				t.Fatalf("unexpected ReadFrame error class: %v", err)
			}
			buf = b
			// Must not panic; an error is fine, and an opcode ReadFrame
			// refused is one ParseRequest refuses too.
			if _, perr := ParseRequest(fr); err == ErrBadOp && perr != ErrBadOp {
				t.Fatalf("ParseRequest(op %d) = %v after ReadFrame's ErrBadOp", fr.Op, perr)
			}
		}
	})
}

// FuzzResponseParse does the same for the client-side response path.
func FuzzResponseParse(f *testing.F) {
	f.Add(byte(OpGet), AppendGetResponse(nil, 1, []byte("v"))[headerSize:])
	f.Add(byte(OpMultiGet), AppendMultiGetResponse(nil, 2,
		[]MultiGetEntry{{Found: true, Value: []byte("x")}, {}})[headerSize:])
	f.Add(byte(OpScan), AppendScanResponse(nil, 3,
		[]KV{{Key: []byte("k"), Value: []byte("v")}})[headerSize:])
	f.Add(byte(OpStats), []byte{0, '{', '}'})
	f.Add(byte(OpPut), []byte{2, 'e', 'r', 'r'})
	// The StatusOK responses of the retired opcodes 7–10 (a checkpoint
	// manifest, fetched file bytes, a bare ack, a WAL tail of two
	// records), byte for byte as the server once framed them.
	f.Add(byte(7), []byte("\x00{}"))
	f.Add(byte(8), []byte("\x00bytes"))
	f.Add(byte(9), []byte{0})
	f.Add(byte(10), []byte("\x00\x00\x0c\x00\x00\x00\x00\x00\x00\x00\xbc\x02\x00\x00\x00\x00\x00\x00"+
		"\x2a\x00\x00\x00\x00\x00\x00\x00\x02\x04rec1\x04rec2"))

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		_, _ = ParseResponse(Frame{Op: Op(op), ID: 1, Body: body})
	})
}
