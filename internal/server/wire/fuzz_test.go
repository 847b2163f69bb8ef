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
