package block

import (
	"bytes"
	"testing"
)

// fuzzSeedBlocks builds representative block images for the corpus:
// valid blocks at both restart intervals, an empty block, and damaged
// variants. Checked-in regressions live in testdata/fuzz/FuzzBlockReader.
func fuzzSeedBlocks() [][]byte {
	var seeds [][]byte
	build := func(interval, n int) []byte {
		b := NewBuilder(interval)
		for i := 0; i < n; i++ {
			key := []byte{'k', byte('0' + i/10), byte('0' + i%10)}
			b.Add(key, bytes.Repeat([]byte{byte(i)}, i%7))
		}
		img := append([]byte(nil), b.Finish()...)
		seeds = append(seeds, img)
		return img
	}
	good := build(16, 40)
	build(1, 5)
	build(16, 0) // empty block: restart trailer only

	truncated := append([]byte(nil), good[:len(good)/2]...)
	seeds = append(seeds, truncated)
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 0x40
	seeds = append(seeds, flipped)
	seeds = append(seeds, nil, []byte{0, 0, 0, 1}, hugeUnsharedBlock)
	return seeds
}

// FuzzBlockReader feeds arbitrary bytes through the block decoder and
// checks its safety contract: parsing either fails cleanly with
// ErrBadBlock or yields an iterator that terminates without panicking,
// and whatever entries it does surface survive an encode→decode round
// trip bit-for-bit.
func FuzzBlockReader(f *testing.F) {
	for _, seed := range fuzzSeedBlocks() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data, bytes.Compare)
		if err != nil {
			return
		}
		it := r.NewIter()
		type kv struct{ k, v []byte }
		var entries []kv
		for it.First(); it.Valid(); it.Next() {
			entries = append(entries, kv{
				append([]byte(nil), it.Key()...),
				append([]byte(nil), it.Value()...),
			})
			if len(entries) > len(data) {
				t.Fatalf("more entries (%d) than bytes (%d)", len(entries), len(data))
			}
		}
		// Seek must not panic on a corrupt image, whatever it lands on,
		// nor SeekPrefix, whole or a piece at a time.
		if len(data) > 0 {
			it.Seek(data[:len(data)%8])
			var pr Reader
			var pit Iter
			pr.SeekPrefix(&pit, &pieces{img: data, step: 1 + len(data)%5}, data[:len(data)%8], bytes.Compare, bytes.Compare)
		}

		// Round trip: re-encoding the surfaced entries and decoding
		// again must reproduce them exactly. (Builder tolerates the
		// arbitrary key order a corrupt image can yield — prefix
		// compression only references the previous key.)
		b := NewBuilder(16)
		for _, e := range entries {
			b.Add(e.k, e.v)
		}
		r2, err := NewReader(b.Finish(), bytes.Compare)
		if err != nil {
			t.Fatalf("re-encoded block unreadable: %v", err)
		}
		it2 := r2.NewIter()
		i := 0
		for it2.First(); it2.Valid(); it2.Next() {
			if i >= len(entries) || !bytes.Equal(it2.Key(), entries[i].k) || !bytes.Equal(it2.Value(), entries[i].v) {
				t.Fatalf("round-trip entry %d mismatch", i)
			}
			i++
		}
		if err := it2.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(entries) {
			t.Fatalf("round trip lost entries: %d of %d", i, len(entries))
		}
	})
}
