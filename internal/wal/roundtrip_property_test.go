package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"noblsm/internal/vclock"
)

// memFile is a file in memory that grants no view and no peek.
type memFile struct{ b []byte }

func (m *memFile) Append(tl *vclock.Timeline, p []byte) error { m.b = append(m.b, p...); return nil }
func (m *memFile) Sync(tl *vclock.Timeline) error             { return nil }
func (m *memFile) Size() int64                                { return int64(len(m.b)) }
func (m *memFile) Close(tl *vclock.Timeline) error            { return nil }
func (m *memFile) Ino() int64                                 { return 1 }
func (m *memFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	return copy(p, m.b[off:]), nil
}
func (m *memFile) ReadView(*vclock.Timeline, int, int64) ([]byte, bool, error) {
	return nil, false, nil
}
func (m *memFile) Peek(int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func TestRoundTripSizes(t *testing.T) {
	tl := vclock.NewTimeline(0)
	rnd := rand.New(rand.NewSource(7))
	// Record sizes probing block boundaries
	sizes := []int{0, 1, 7, BlockSize - 7, BlockSize - 8, BlockSize - 6, BlockSize - 14, BlockSize - 13, BlockSize, BlockSize + 1, 3 * BlockSize, 100}
	var recs [][]byte
	f := &memFile{}
	w := &Writer{f: f}
	for i, s := range sizes {
		p := make([]byte, s)
		rnd.Read(p)
		if len(p) > 0 {
			p[0] = byte(i)
		}
		recs = append(recs, p)
		if err := w.AddRecord(tl, p); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(f.b)
	for i := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("rec %d (size %d): premature end", i, sizes[i])
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("rec %d (size %d): mismatch got %d bytes want %d", i, sizes[i], len(got), len(recs[i]))
		}
	}
	if got, ok := r.Next(); ok {
		t.Fatalf("extra record of %d bytes", len(got))
	}
	if r.Dropped != 0 || r.DroppedRecords != 0 {
		t.Fatalf("clean log reported dropped=%d records=%d", r.Dropped, r.DroppedRecords)
	}
}

// Truncate the log at every length; reader must return a clean prefix
// of complete records and never a wrong/partial record.
func TestTornTailEveryOffset(t *testing.T) {
	tl := vclock.NewTimeline(0)
	rnd := rand.New(rand.NewSource(9))
	f := &memFile{}
	w := &Writer{f: f}
	var recs [][]byte
	for i := 0; i < 30; i++ {
		p := make([]byte, rnd.Intn(3000))
		rnd.Read(p)
		recs = append(recs, p)
		if err := w.AddRecord(tl, p); err != nil {
			t.Fatal(err)
		}
	}
	full := f.b
	for cut := 0; cut <= len(full); cut += 37 {
		r := NewReader(full[:cut])
		i := 0
		for {
			got, ok := r.Next()
			if !ok {
				break
			}
			if i >= len(recs) || !bytes.Equal(got, recs[i]) {
				t.Fatalf("cut %d: record %d wrong (len %d)", cut, i, len(got))
			}
			i++
		}
	}
}

// A writer resuming on a non-empty file (manifest reuse pattern).
func TestResumeAppend(t *testing.T) {
	tl := vclock.NewTimeline(0)
	f := &memFile{}
	w := NewWriter(f)
	a := bytes.Repeat([]byte("a"), BlockSize-10)
	if err := w.AddRecord(tl, a); err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(f)
	b := bytes.Repeat([]byte("b"), 50)
	if err := w2.AddRecord(tl, b); err != nil {
		t.Fatal(err)
	}
	r := NewReader(f.b)
	g1, ok1 := r.Next()
	g2, ok2 := r.Next()
	if !ok1 || !ok2 || !bytes.Equal(g1, a) || !bytes.Equal(g2, b) {
		t.Fatalf("resume: ok1=%v ok2=%v len1=%d len2=%d", ok1, ok2, len(g1), len(g2))
	}
}
