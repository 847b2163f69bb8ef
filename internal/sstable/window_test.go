package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"noblsm/internal/block"
	"noblsm/internal/compress"
)

// windowSeeds are windowed payloads for FuzzWindowedPayload's corpus: a
// data block in several windows at both codec levels, a one-window
// block, damaged directories — no windows, a length running past the
// payload, lengths that leave bytes over or fall short — and a sound
// directory over a damaged window. Checked-in regressions live in
// testdata/fuzz/FuzzWindowedPayload.
func windowSeeds() [][]byte {
	b := block.NewBuilder(4)
	var starts []int
	for i := range 40 {
		if i > 0 && i%10 == 0 {
			starts = append(starts, b.Offset())
			b.Restart()
		}
		b.Add([]byte(fmt.Sprintf("key%04d.internal", i)), bytes.Repeat([]byte{'a' + byte(i%5)}, 20+i))
	}
	img := b.Finish()
	multi := encodeWindows(nil, img, starts, compress.LevelMax)
	flipped := append([]byte(nil), multi...)
	flipped[len(flipped)/2] ^= 0xff
	return [][]byte{
		multi,
		encodeWindows(nil, img, starts, compress.LevelFast),
		encodeWindows(nil, img, nil, compress.LevelFast),
		{0},                  // no windows
		{1, 0x7f, 1},         // a length past the payload
		{1, 1, 0, 0},         // a byte over
		multi[:len(multi)-3], // the last window cut short
		flipped,              // a sound directory over a damaged window
	}
}

// FuzzWindowedPayload feeds arbitrary bytes to the windowed-payload
// parser and both of its decoders, and checks that none panics — the
// stored payload is CRC-checked, not trusted — and that they agree:
// decoding the windows piece by piece in a fuzz-chosen order, with
// fuzz-chosen limits, never changes a byte it has returned, counts every
// byte it decodes once, and ends, through all, with decodeWindows'
// image or its error. A point read's SeekPrefix over the pieces must
// not panic either, whatever it lands on.
func FuzzWindowedPayload(f *testing.F) {
	for _, seed := range windowSeeds() {
		f.Add(seed, []byte{0, 3, 1, 200})
	}
	f.Fuzz(func(t *testing.T, payload, steps []byte) {
		whole, wholeErr := decodeWindows(nil, payload)
		var w windowed
		n, err := w.reset(nil, payload)
		if err != nil {
			if wholeErr == nil {
				t.Fatalf("reset fails (%v) where decodeWindows decodes %d bytes", err, len(whole))
			}
			return
		}
		if n != len(w.image) || w.Windows() < 1 {
			t.Fatalf("reset returned %d for a %d-byte image of %d windows", n, len(w.image), w.Windows())
		}
		for i := range w.Windows() {
			start, end := w.Window(i)
			if prev := 0; i > 0 {
				_, prev = w.Window(i - 1)
				if start != prev {
					t.Fatalf("window %d starts at %d, the one before ends at %d", i, start, prev)
				}
			}
			if end < start || end > n {
				t.Fatalf("window %d is [%d, %d) of %d bytes", i, start, end, n)
			}
		}
		// Piece by piece: a step byte picks a window and a limit in it.
		seen := make([][]byte, w.Windows())
		for _, s := range steps {
			i := int(s) % w.Windows()
			start, end := w.Window(i)
			out, err := w.Fill(i, start+int(s)*(end-start+1)/256)
			if err != nil {
				break
			}
			got := out[start:]
			if !bytes.HasPrefix(got, seen[i]) || len(got) > end-start {
				t.Fatalf("window %d: Fill changed what it returned or ran past its end", i)
			}
			seen[i] = append(seen[i][:0], got...)
		}
		img, err := w.all()
		if (err != nil) != (wholeErr != nil) {
			t.Fatalf("all: %v, decodeWindows: %v", err, wholeErr)
		}
		if err == nil {
			if wholeErr != nil || !bytes.Equal(img, whole) || w.decoded != n {
				t.Fatalf("all decoded %d of %d bytes, unlike decodeWindows (%v)", w.decoded, n, wholeErr)
			}
			for i, got := range seen {
				if start, _ := w.Window(i); !bytes.HasPrefix(img[start:], got) {
					t.Fatalf("window %d: a piece Fill returned changed", i)
				}
			}
		}
		// A point read over a fresh decode of the same payload.
		if _, err := w.reset(nil, payload); err != nil {
			t.Fatalf("reset fails the second time: %v", err)
		}
		var r block.Reader
		var it block.Iter
		target := payload[:len(payload)%9]
		r.SeekPrefix(&it, &w, target, bytes.Compare, bytes.Compare)
	})
}

// TestWindowedPayloadRoundTrip encodes block images as windows at both
// levels, cut at every restart the test picks, and reads them back
// whole and piece by piece: the directory counts the windows, each
// window decodes to its part of the image, and decodeWindows gives the
// image back.
func TestWindowedPayloadRoundTrip(t *testing.T) {
	img := bytes.Repeat([]byte("0123456789abcdefghij"), 500)
	for _, lv := range []compress.Level{compress.LevelFast, compress.LevelMax} {
		for _, starts := range [][]int{nil, {5000}, {1, 2, 3}, {1000, 2000, 3000, 4000, 9999}} {
			payload := encodeWindows(nil, img, starts, lv)
			dir, err := parseDir(payload)
			if err != nil || dir.k != len(starts)+1 {
				t.Fatalf("%v: %d windows (%v), want %d", starts, dir.k, err, len(starts)+1)
			}
			dec, err := decodeWindows(nil, payload)
			if err != nil || !bytes.Equal(dec, img) {
				t.Fatalf("%v: decodeWindows gave %d bytes (%v)", starts, len(dec), err)
			}
			var w windowed
			if _, err := w.reset(nil, payload); err != nil {
				t.Fatal(err)
			}
			for i := range w.Windows() {
				start, end := w.Window(i)
				if want := append([]int{0}, starts...)[i]; start != want {
					t.Fatalf("%v: window %d starts at %d", starts, i, start)
				}
				out, err := w.Fill(i, end)
				if err != nil || !bytes.Equal(out[start:], img[start:end]) {
					t.Fatalf("%v: window %d decodes wrong (%v)", starts, i, err)
				}
			}
			if w.decoded != len(img) {
				t.Fatalf("%v: %d bytes counted, %d decoded", starts, w.decoded, len(img))
			}
		}
	}
}
