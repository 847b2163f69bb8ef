package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"noblsm/internal/dbbench"
)

var levels = []Level{LevelFast, LevelMax}

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	for _, lv := range levels {
		enc := Encode(nil, src, lv)
		if len(enc) > MaxEncodedLen(len(src)) {
			t.Fatalf("level %d: encoded %d bytes > MaxEncodedLen %d", lv, len(enc), MaxEncodedLen(len(src)))
		}
		if n, err := DecodedLen(enc); err != nil || n != len(src) {
			t.Fatalf("level %d: DecodedLen = %d, %v; want %d", lv, n, err, len(src))
		}
		dec, err := Decode(nil, enc)
		if err != nil {
			t.Fatalf("level %d: Decode: %v", lv, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("level %d: round trip mismatch: %d bytes in, %d out", lv, len(src), len(dec))
		}
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte{},
		[]byte("a"),
		[]byte("abcd"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte("abcabcabcabcabcabcabcabc"),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 100)),
		bytes.Repeat([]byte{0}, 1<<16),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

// fill overwrites src with seeded data of one of the corpus kinds.
func fill(rnd *rand.Rand, kind int, src []byte) {
	switch kind {
	case 0: // incompressible
		rnd.Read(src)
	case 1: // low-entropy
		for j := range src {
			src[j] = byte(rnd.Intn(4))
		}
	case 2: // runs, like dbbench values
		for j := 0; j < len(src); {
			b := byte('a' + rnd.Intn(26))
			r := rnd.Intn(7) + 1
			for k := 0; k < r && j < len(src); k++ {
				src[j] = b
				j++
			}
		}
	case 3: // an SSTable data block of the read benchmarks
		copy(src, benchBlock(rnd.Int63n(1<<20), len(src)))
	}
}

func TestRoundTripRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		src := make([]byte, rnd.Intn(1<<14))
		fill(rnd, i%3, src)
		roundTrip(t, src)
	}
}

// TestRoundTripBenchValues pins the codec against the exact value
// stream the read benchmarks compress, and asserts the db_bench-like
// ratio the perf model relies on (db_bench targets ~2×; see
// DESIGN.md §10).
func TestRoundTripBenchValues(t *testing.T) {
	block := benchBlock(0, 8192)
	roundTrip(t, block)
	for _, lv := range levels {
		enc := Encode(nil, block, lv)
		ratio := float64(len(block)) / float64(len(enc))
		t.Logf("level %d: %d -> %d bytes (%.2fx)", lv, len(block), len(enc), ratio)
		if ratio < 2.0 {
			t.Errorf("level %d: ratio %.2f below the 2.0 floor the read path budgets for", lv, ratio)
		}
	}
}

func TestMaxNoWorseThanFast(t *testing.T) {
	block := benchBlock(0, 16384)
	fast := Encode(nil, block, LevelFast)
	max := Encode(nil, block, LevelMax)
	if len(max) > len(fast) {
		t.Errorf("LevelMax produced %d bytes, larger than LevelFast's %d", len(max), len(fast))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// Two token bytes cannot decode to the 1 GiB this header declares.
	overDeclared := []byte{0xff, 0xff, 0xff, 0xff, 0x03, 2, 'a'}
	cases := [][]byte{
		{},
		{0x80},            // unterminated varint
		{4},               // declares 4 bytes, no tokens
		{4, 0, 'a'},       // zero literal tag
		{4, 2 << 1, 'a'},  // literal runs past input
		{4, 1 | 0<<2, 1},  // copy before start of output
		{2, 1 | 10<<2, 1}, // copy past declared length
		append([]byte{255, 255, 255, 255, 8}, make([]byte, 10)...), // huge declared length
		overDeclared,
	}
	for i, c := range cases {
		if _, err := Decode(nil, c); err == nil {
			t.Errorf("case %d: Decode accepted garbage %v", i, c)
		}
	}
	// The header is refused before anything is sized by it: neither
	// Decode nor a caller drawing a buffer of DecodedLen bytes allocates.
	if _, err := DecodedLen(overDeclared); err == nil {
		t.Errorf("DecodedLen accepted a length its input cannot reach")
	}
	if n := testing.AllocsPerRun(10, func() { Decode(nil, overDeclared) }); n != 0 {
		t.Errorf("Decode of an over-declared header: %v allocs, want 0", n)
	}
}

// corpus is the seeded input set the golden and the reference tests
// share: every kind fill knows, at every length 0…300 (token, literal
// and word boundaries all fall in there) and at two dozen random
// lengths up to 16 KiB.
func corpus() [][]byte {
	rnd := rand.New(rand.NewSource(19))
	var lens []int
	for n := 0; n <= 300; n++ {
		lens = append(lens, n)
	}
	for i := 0; i < 24; i++ {
		lens = append(lens, 301+rnd.Intn(1<<14-300))
	}
	var inputs [][]byte
	for kind := 0; kind < 4; kind++ {
		for _, n := range lens {
			src := make([]byte, n)
			fill(rnd, kind, src)
			inputs = append(inputs, src)
		}
	}
	return inputs
}

// goldenDigest is SHA-256 over the encodings of corpus(), in corpus
// order, per level — taken from the byte-at-a-time encoder that
// allocated a zeroed match table per call (the commit before the
// pooled table). The benchmark's determinism gate and every compressed
// figure rest on Encode's stream not moving.
var goldenDigest = [...]string{
	LevelFast: "271014f14795f5b8595808c11e2d8198cc455f422ccca87c67a740244035ad26",
	LevelMax:  "4b28692057c7accb70ca7b04e1e85f6d20905534f3e2e993bc854f4ad6a9b404",
}

// corpusDigest encodes the inputs in the given order and hashes the
// encodings in corpus order.
func corpusDigest(inputs [][]byte, order []int, lv Level) string {
	encs := make([][]byte, len(inputs))
	for _, i := range order {
		encs[i] = Encode(nil, inputs[i], lv)
	}
	h := sha256.New()
	for _, enc := range encs {
		h.Write(enc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodeGolden pins Encode's output byte for byte, and pins it
// against what the pooled match table held before: the corpus is
// encoded forwards, backwards, through a table whose base is about to
// wrap, and from four goroutines in four shuffled orders at once, the
// levels taking turns — so each input meets a table left by a
// different predecessor, of either level, every time.
func TestEncodeGolden(t *testing.T) {
	inputs := corpus()
	fwd := make([]int, len(inputs))
	rev := make([]int, len(inputs))
	for i := range inputs {
		fwd[i], rev[len(inputs)-1-i] = i, i
	}
	check := func(pass string, order []int, lv Level) {
		if got := corpusDigest(inputs, order, lv); got != goldenDigest[lv] {
			t.Errorf("level %d, %s: digest %s, want %s", lv, pass, got, goldenDigest[lv])
		}
	}
	for _, lv := range levels {
		check("forwards", fwd, lv)
	}
	for _, lv := range levels {
		check("backwards", rev, lv)
	}
	for _, lv := range levels {
		tab := matchTables.Get().(*matchTable)
		tab.base = math.MaxUint32 - 1000 // a few short inputs fit below the wrap, then it clears
		matchTables.Put(tab)
		check("forwards from a table about to wrap", fwd, lv)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check("shuffled beside three goroutines", rand.New(rand.NewSource(int64(g))).Perm(len(inputs)), levels[g%2])
		}(g)
	}
	wg.Wait()
}

// refDecode is the decoder Decode's fast loop replaced, kept as the
// reference: one token at a time, every length checked per token,
// every copy byte by byte. It shares nothing with Decode but the
// format constants.
func refDecode(src []byte) ([]byte, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 || n > uint64(len(src)-sz)*(maxMatch+1)/2 {
		return nil, ErrCorrupt
	}
	dst := make([]byte, n)
	d, s := 0, sz
	for s < len(src) {
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
		for i := 0; i < m; i++ {
			dst[d+i] = dst[d-off+i]
		}
		d += m
	}
	if d != len(dst) {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// sameAsRef requires Decode to give src the reference's verdict and,
// when that is success, its bytes. Decode gets what the sstable
// reader's buffer pool hands it — a dirty buffer longer than the block
// — and must not touch it past the declared length.
func sameAsRef(t *testing.T, what string, src []byte) {
	t.Helper()
	want, wantErr := refDecode(src)
	n, _ := DecodedLen(src) // 0 when the header is refused
	buf := bytes.Repeat([]byte{0xA5}, n+96)
	got, err := Decode(buf[:0], src)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: Decode: %v, want ErrCorrupt or nil", what, err)
	}
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: Decode: %v, reference: %v", what, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Decode differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
	if err == nil && len(got) > 0 && &got[0] != &buf[0] {
		t.Fatalf("%s: Decode allocated although dst had room", what)
	}
	if tail := buf[n:]; bytes.Count(tail, []byte{0xA5}) != len(tail) {
		t.Fatalf("%s: Decode wrote past the declared length", what)
	}
}

// A fillStep picks the limit of a Decoder's next Fill from the last
// limit and the bytes out so far.
type fillStep func(limit, out int) int

// oneByteSteps asks for one byte more than last time, whatever is out:
// most of its Fills have nothing to do.
func oneByteSteps(limit, _ int) int { return limit + 1 }

// oneTokenSteps asks for one byte more than is out: each Fill takes the
// next token (or the fast loop's literal-and-copy turn).
func oneTokenSteps(_, out int) int { return out + 1 }

// randomSteps asks for up to 300 bytes more at a time.
func randomSteps(rnd *rand.Rand) fillStep {
	return func(limit, _ int) int { return limit + 1 + rnd.Intn(300) }
}

// fillSameAsRef decodes src through a Decoder in the steps next picks,
// then fills the declared length. Every Fill must return at least what
// it was asked for (or the whole block), and its new bytes must be the
// reference's; a failed Fill must mean the reference fails; and the
// last Fill must fail exactly when the reference does, with its bytes
// when it does not. As in sameAsRef, the buffer is dirty and longer
// than the block, and nothing past the declared length may be written.
func fillSameAsRef(t *testing.T, what string, src []byte, next fillStep) {
	t.Helper()
	want, wantErr := refDecode(src)
	n, _ := DecodedLen(src)
	buf := bytes.Repeat([]byte{0xA5}, n+96)
	var z Decoder
	if got, err := z.Reset(buf[:0], src); err != nil || got != n {
		if err == nil || wantErr == nil {
			t.Fatalf("%s: Reset: %d, %v; reference: %v", what, got, err, wantErr)
		}
		return
	}
	out := 0
	for limit := 0; limit < n; {
		limit = next(limit, out)
		got, err := z.Fill(limit)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || wantErr == nil {
				t.Fatalf("%s: Fill(%d) after %d bytes: %v; the reference decodes", what, limit, out, err)
			}
			return
		}
		if len(got) < min(limit, n) || len(got) < out {
			t.Fatalf("%s: Fill(%d) after %d bytes returned %d", what, limit, out, len(got))
		}
		if wantErr == nil && !bytes.Equal(got[out:], want[out:len(got)]) {
			t.Fatalf("%s: Fill(%d): bytes %d..%d differ from the reference", what, limit, out, len(got))
		}
		out = len(got)
	}
	got, err := z.Fill(n)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: filled in steps: %v, reference: %v", what, err, wantErr)
	}
	if !bytes.Equal(got, want) { // earlier bytes included: they must not have moved
		t.Fatalf("%s: filled in steps, the block differs from the reference", what)
	}
	if tail := buf[n:]; bytes.Count(tail, []byte{0xA5}) != len(tail) {
		t.Fatalf("%s: Fill wrote past the declared length", what)
	}
}

// everyTruncation runs both decoders over enc cut short at every length,
// the Decoder filling in random steps.
func everyTruncation(t *testing.T, enc []byte) {
	t.Helper()
	next := randomSteps(rand.New(rand.NewSource(int64(len(enc)))))
	for cut := 0; cut < len(enc); cut++ {
		sameAsRef(t, "truncated", enc[:cut])
		fillSameAsRef(t, "truncated", enc[:cut], next)
	}
}

// TestDecoderFillMatchesDecode fills every encoding of the corpus, at
// both levels, in one-byte steps, in random steps and a token at a time:
// each way must give Decode's bytes.
func TestDecoderFillMatchesDecode(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for _, src := range corpus() {
		for _, lv := range levels {
			enc := Encode(nil, src, lv)
			for name, next := range map[string]fillStep{
				"one-byte steps": oneByteSteps, "random steps": randomSteps(rnd), "one-token steps": oneTokenSteps,
			} {
				fillSameAsRef(t, name, enc, next)
			}
		}
	}
}

// TestDecodeMatchesReference runs both decoders over every encoding of
// the corpus, and over every truncation of the short ones (inputs up
// to 300 bytes: four in five of the corpus).
func TestDecodeMatchesReference(t *testing.T) {
	for _, src := range corpus() {
		for _, lv := range levels {
			enc := Encode(nil, src, lv)
			sameAsRef(t, "corpus", enc)
			if len(src) <= 300 {
				everyTruncation(t, enc)
			}
		}
	}
}

// TestDecodeBitFlips flips every bit of a valid encoding of each level
// in turn, then cuts it short at every length: each mutation must fail
// or decode exactly as the reference decoder says (never panic, never
// read or write out of bounds). Payload integrity end to end is the
// block CRC's job, one layer up.
func TestDecodeBitFlips(t *testing.T) {
	src := benchBlock(0, 2048)
	next := randomSteps(rand.New(rand.NewSource(32)))
	for _, lv := range levels {
		enc := Encode(nil, src, lv)
		buf := make([]byte, len(enc))
		for i := 0; i < len(enc)*8; i++ {
			copy(buf, enc)
			buf[i/8] ^= 1 << (i % 8)
			sameAsRef(t, "bit flip", buf)
			fillSameAsRef(t, "bit flip, one-token steps", buf, oneTokenSteps)
			fillSameAsRef(t, "bit flip, random steps", buf, next)
		}
		everyTruncation(t, enc)
	}
}

func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("abcabcabcabcabcabc"))
	f.Add(bytes.Repeat([]byte("x"), 300))
	f.Add(benchBlock(0, 1024))
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		for _, lv := range levels {
			enc := Encode(nil, src, lv)
			if len(enc) > MaxEncodedLen(len(src)) {
				t.Fatalf("level %d: output %d > MaxEncodedLen %d", lv, len(enc), MaxEncodedLen(len(src)))
			}
			dec, err := Decode(nil, enc)
			if err != nil {
				t.Fatalf("level %d: decode of own encoding failed: %v", lv, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("level %d: round trip mismatch", lv)
			}
			fillSameAsRef(t, "own encoding, fuzzed steps", enc, fuzzSteps(src))
		}
		// The raw input fed to the decoder must never panic it, and
		// must fail or decode exactly as the reference decoder says,
		// whole or a piece at a time.
		sameAsRef(t, "raw input", src)
		fillSameAsRef(t, "raw input, fuzzed steps", src, fuzzSteps(src))
	})
}

// fuzzSteps draws a Decoder's steps from the fuzzer's input: each Fill
// asks for 1 to 256 bytes more, as the input's bytes say in turn.
func fuzzSteps(in []byte) fillStep {
	i := 0
	return func(limit, _ int) int {
		if len(in) == 0 {
			return limit + 1
		}
		i++
		return limit + 1 + int(in[i%len(in)])
	}
}

// benchBlock builds data shaped like an SSTable data block from the
// benchmark workload: 16-byte ascending keys, the first given,
// interleaved with compressible-ish dbbench values.
func benchBlock(first int64, size int) []byte {
	var b []byte
	var v []byte
	for i := first; len(b) < size; i++ {
		b = append(b, dbbench.Key(i)...)
		v = dbbench.CompressibleValue(v, i, 0, 1024)
		b = append(b, v...)
	}
	return b[:size]
}

// The benchmarks cycle through benchBlocks distinct blocks, striding
// the index by a prime so neighbours in time are not neighbours in key
// space. One block in a loop measures a branch predictor that has
// learnt the block's ~1 000 tokens, not the codec: the byte-at-a-time
// Decode read 5.9 µs per 8 KiB block that way and 17.5 µs over distinct
// blocks, which is what a cold Get pays.
const (
	benchBlocks    = 2048
	benchStride    = 769
	benchBlockSize = 8192
)

func distinctBlocks() [][]byte {
	blocks := make([][]byte, benchBlocks)
	for i := range blocks {
		blocks[i] = benchBlock(int64(i)*8, benchBlockSize)
	}
	return blocks
}

func BenchmarkEncodeFast(b *testing.B) { benchEncode(b, LevelFast) }
func BenchmarkEncodeMax(b *testing.B)  { benchEncode(b, LevelMax) }

func benchEncode(b *testing.B, lv Level) {
	srcs := distinctBlocks()
	dst := make([]byte, MaxEncodedLen(benchBlockSize))
	b.SetBytes(benchBlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(dst, srcs[i*benchStride%benchBlocks], lv)
	}
}

func BenchmarkDecode(b *testing.B) {
	encs := distinctBlocks()
	for i, src := range encs {
		encs[i] = Encode(nil, src, LevelMax)
	}
	dst := make([]byte, benchBlockSize)
	b.SetBytes(benchBlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(dst, encs[i*benchStride%benchBlocks]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePrefix is what a point read's miss decodes: the same
// blocks as BenchmarkDecode, each decoded only to the end of its median
// entry. A benchBlock entry is a 16-byte key and a 1 KiB value, so an
// 8 KiB block holds eight (the last cut short) and the fifth ends at
// byte 5 200. ns/op compares with BenchmarkDecode's; MB/s counts the
// bytes decoded.
func BenchmarkDecodePrefix(b *testing.B) {
	const entry = 16 + 1024
	entries := (benchBlockSize + entry - 1) / entry
	limit := (entries/2 + 1) * entry
	encs := distinctBlocks()
	for i, src := range encs {
		encs[i] = Encode(nil, src, LevelMax)
	}
	dst := make([]byte, benchBlockSize)
	var z Decoder
	b.SetBytes(int64(limit))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Reset(dst, encs[i*benchStride%benchBlocks]); err != nil {
			b.Fatal(err)
		}
		if out, err := z.Fill(limit); err != nil || len(out) < limit {
			b.Fatal(len(out), err)
		}
	}
}
