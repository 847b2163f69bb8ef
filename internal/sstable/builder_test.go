package sstable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"noblsm/internal/keys"
	"noblsm/internal/vclock"
)

// goldenEntries is a fixed, sorted 2 000-entry input: values of
// letter runs (so the codec has something to find) in sizes that move
// the block cuts around, a tombstone every 50th entry, and every 97th
// user key written twice (the filter counts both).
func goldenEntries() (ikeys, values [][]byte) {
	seed := uint64(24)
	for i := 0; i < 2000; i++ {
		ukey := []byte(fmt.Sprintf("user%08d", i*7))
		v := make([]byte, 0, 100+i%400)
		for len(v) < cap(v) {
			seed = seed*6364136223846793005 + 1442695040888963407
			for run := int(seed>>56)%7 + 1; run > 0 && len(v) < cap(v); run-- {
				v = append(v, byte('a'+(seed>>33)%26))
			}
		}
		kind := keys.KindValue
		if i%50 == 49 {
			kind, v = keys.KindDelete, nil
		}
		if i%97 == 0 {
			ikeys = append(ikeys, keys.MakeInternalKey(nil, ukey, keys.SeqNum(5000+i), keys.KindValue))
			values = append(values, v[:len(v)/2])
		}
		ikeys = append(ikeys, keys.MakeInternalKey(nil, ukey, keys.SeqNum(i+1), kind))
		values = append(values, v)
	}
	return ikeys, values
}

// TestBuilderGolden pins the builder's output byte for byte: table
// sizes decide where compaction cuts and what the device is charged,
// so a changed digest moves every exact benchmark metric. Each codec
// builds twice on one BuildScratch; the second table must not see the
// first one's leftovers.
func TestBuilderGolden(t *testing.T) {
	ikeys, values := goldenEntries()
	for _, tc := range []struct {
		codec Compression
		want  string
	}{
		{NoCompression, "804c3f853655aef725af76d92f7798a2961c847bd8b2c9dbcb4257d9a2f02f6c"},
		{FastCompression, "81602d999133c3546985e987877c0314c691c3657eea81cb349a746fb55564bf"},
		{MaxCompression, "f1c0f202c0f451a177eda5fd67bde70b2ea1ffb29a36d859f4c0b843de4cf07e"},
	} {
		opts := DefaultOptions()
		opts.Compression = tc.codec
		opts.Scratch = &BuildScratch{}
		for round := 0; round < 2; round++ {
			f := &memFile{}
			tl := vclock.NewTimeline(0)
			b := NewBuilder(f, opts)
			for i := range ikeys {
				if err := b.Add(tl, ikeys[i], values[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Finish(tl); err != nil {
				t.Fatal(err)
			}
			if b.FileSize() != int64(len(f.b)) {
				t.Fatalf("%v: FileSize %d, file holds %d", tc.codec, b.FileSize(), len(f.b))
			}
			sum := sha256.Sum256(f.b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%v round %d: %d bytes, sha256 %s, want %s", tc.codec, round, len(f.b), got, tc.want)
			}
		}
	}
}

// nullFile counts what a builder appends and keeps none of it, so the
// builder's own work is all a benchmark or an allocation count sees.
type nullFile struct {
	memFile
	size int64
}

func (f *nullFile) Append(tl *vclock.Timeline, p []byte) error { f.size += int64(len(p)); return nil }
func (f *nullFile) Size() int64                                { return f.size }

// TestBuilderAddAllocations is the table builder's allocation gate:
// buildTable's 1 000 entries on a lent scratch, NewBuilder to Finish,
// in fewer than one allocation per ten entries. Add itself allocates
// nothing — not for the filter, nor a block's handle or index
// separator; what is left (43) is the builder's own set-up and its
// buffers growing.
func TestBuilderAddAllocations(t *testing.T) {
	const n = 1000
	ikeys, values := make([][]byte, n), make([][]byte, n)
	for i := range ikeys {
		ikeys[i] = ik(fmt.Sprintf("key%06d", i), keys.SeqNum(i+1))
		values[i] = []byte(fmt.Sprintf("value-%d", i))
	}
	opts := DefaultOptions()
	opts.Scratch = &BuildScratch{}
	tl := vclock.NewTimeline(0)
	perTable := testing.AllocsPerRun(20, func() {
		b := NewBuilder(&nullFile{}, opts)
		for i := range ikeys {
			if err := b.Add(tl, ikeys[i], values[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Finish(tl); err != nil {
			t.Fatal(err)
		}
	})
	if perTable > 0.1*n {
		t.Fatalf("%.0f allocations per %d-entry table, want at most one per ten entries", perTable, n)
	}
}

// BenchmarkTableBuild is the table builder's layer benchmark: 2 000
// entries of 1 KB into a file that keeps nothing — block encoding, the
// trailer CRC and the filter. MB/s is of table bytes; allocs/op is per
// table (-benchmem).
func BenchmarkTableBuild(b *testing.B) {
	const n = 2000
	ikeys := make([][]byte, n)
	for i := range ikeys {
		ikeys[i] = ik(fmt.Sprintf("%016d", i*3), keys.SeqNum(i+1))
	}
	value := make([]byte, 1024)
	for i := range value {
		value[i] = byte('a' + i/5%26)
	}
	opts := DefaultOptions()
	opts.Scratch = &BuildScratch{}
	tl := vclock.NewTimeline(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := &nullFile{}
		tb := NewBuilder(f, opts)
		for j := range ikeys {
			if err := tb.Add(tl, ikeys[j], value); err != nil {
				b.Fatal(err)
			}
		}
		if err := tb.Finish(tl); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(f.size)
	}
}
