// Package wal implements LevelDB's write-ahead-log format: the file is
// a sequence of 32 KiB blocks, each packed with physical records of
// the form
//
//	checksum uint32   // CRC-32C of type byte + payload
//	length   uint16   // payload length
//	type     uint8    // FULL, FIRST, MIDDLE or LAST
//	payload  []byte
//
// A logical record larger than the space left in a block is split into
// FIRST/MIDDLE.../LAST fragments; a block tail smaller than the 7-byte
// header is zero-padded. The same format stores both the write-ahead
// log and the MANIFEST (version-edit log).
//
// The reader recovers gracefully from a torn tail — the expected state
// of an unsynced log after a power cut — by reporting how many clean
// records were read and whether trailing bytes had to be dropped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

const (
	// BlockSize is the physical block size of the log format.
	BlockSize = 32 * 1024
	// headerSize is checksum(4) + length(2) + type(1).
	headerSize = 7
)

// Record fragment types.
const (
	full   = 1
	first  = 2
	middle = 3
	last   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a damaged record (bad checksum, impossible
// length, or a fragment sequence that does not parse).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrInteriorCorruption reports damage in the interior of the log:
// corrupt bytes followed by further valid records. A crash can only
// damage the unsynced tail, so interior corruption is real media or
// software corruption, never a torn-write artifact, and recovery must
// not silently truncate it away.
var ErrInteriorCorruption = errors.New("wal: corruption before log tail")

// Writer appends logical records to a log file.
type Writer struct {
	f           vfs.File
	blockOffset int
	buf         []byte

	// records/bytes are optional registry counters (Instrument); nil
	// costs one pointer check per append.
	records *obs.Counter
	bytes   *obs.Counter
	// appendDur, when set (InstrumentTimer), times each successful
	// AddRecord on the caller's virtual timeline — the write path's
	// wal_append attribution phase, viewed from the log's side.
	appendDur *obs.Timer
}

// Instrument publishes per-append accounting (logical records and
// physical bytes, including framing and padding) into the given
// counters. Nil counters disable the corresponding count.
func (w *Writer) Instrument(records, bytes *obs.Counter) {
	w.records, w.bytes = records, bytes
}

// InstrumentTimer publishes per-append virtual durations into t. A nil
// timer disables the measurement.
func (w *Writer) InstrumentTimer(t *obs.Timer) { w.appendDur = t }

// NewWriter returns a writer appending to f, which must be empty or
// have been written only by a Writer (so the block phase is size %
// BlockSize).
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f, blockOffset: int(f.Size() % BlockSize)}
}

// AddRecord appends one logical record.
//
// On error nothing is considered written: the writer rewinds its block
// phase so its framing state never runs ahead of a failed append. The
// file itself may still hold a prefix of the record (a short or torn
// write), so after any AddRecord error the caller must stop appending
// to this log and rotate to a fresh one — the damage is then a pure
// tail artifact that the reader truncates cleanly at recovery.
func (w *Writer) AddRecord(tl *vclock.Timeline, payload []byte) error {
	appendFrom := tl.Now()
	startOffset := w.blockOffset
	w.buf = w.buf[:0]
	rest := payload
	begin := true
	for {
		leftover := BlockSize - w.blockOffset
		if leftover < headerSize {
			// Pad the block tail.
			w.buf = append(w.buf, make([]byte, leftover)...)
			w.blockOffset = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := rest
		if len(frag) > avail {
			frag = frag[:avail]
		}
		rest = rest[len(frag):]
		end := len(rest) == 0
		var typ byte
		switch {
		case begin && end:
			typ = full
		case begin:
			typ = first
		case end:
			typ = last
		default:
			typ = middle
		}
		var hdr [headerSize]byte
		crc := crc32.New(castagnoli)
		crc.Write([]byte{typ})
		crc.Write(frag)
		binary.LittleEndian.PutUint32(hdr[0:4], crc.Sum32())
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(frag)))
		hdr[6] = typ
		w.buf = append(w.buf, hdr[:]...)
		w.buf = append(w.buf, frag...)
		w.blockOffset += headerSize + len(frag)
		begin = false
		if end {
			break
		}
	}
	if err := w.f.Append(tl, w.buf); err != nil {
		w.blockOffset = startOffset
		return err
	}
	if w.records != nil {
		w.records.Inc()
	}
	if w.bytes != nil {
		w.bytes.Add(int64(len(w.buf)))
	}
	if w.appendDur != nil {
		w.appendDur.Observe(tl.Now().Sub(appendFrom))
	}
	return nil
}

// Sync forces the log file durable (used only by sync-writes modes).
func (w *Writer) Sync(tl *vclock.Timeline) error { return w.f.Sync(tl) }

// Size reports the current log file size.
func (w *Writer) Size() int64 { return w.f.Size() }

// Reader reads logical records back from a log file image.
type Reader struct {
	data []byte
	off  int
	// Dropped reports bytes discarded due to corruption or a torn
	// tail after reading is complete.
	Dropped int
	// DroppedRecords counts logical records lost to corruption.
	DroppedRecords int

	// HaltAtCorruption switches the reader from skip-and-resync to
	// salvage-to-last-valid-record: the first damaged physical record
	// ends the scan instead of being skipped. Everything before the
	// damage is served normally; Halted reports that the stop was due
	// to damage rather than a clean end, and Offset points at the
	// damaged record so a second pass can classify the remainder.
	HaltAtCorruption bool

	// pendingCorrupt marks a corruption event not yet known to be
	// interior; if a complete logical record parses after it, the
	// damage provably preceded valid data and is promoted to interior.
	// Corruption that runs to end-of-log stays pending: it is
	// indistinguishable from a torn tail and is truncated silently.
	pendingCorrupt bool
	interior       bool
	halted         bool
	haltOff        int

	// physStart is the offset of the physical record readPhysical last
	// parsed (after any padding skip); recStart is the offset of the
	// first fragment of the logical record Next last returned. They can
	// differ from the pre-Next cursor when damage or padding was
	// skipped on the way to the record.
	physStart int
	recStart  int
}

// NewReader reads from an in-memory image of the log (the engine reads
// the whole file through the filesystem first so device costs are
// charged there).
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Err reports, once Next has returned false, whether the log showed
// corruption in its interior. A torn or short final record — the
// expected shape of an unsynced log after a crash — is truncated
// silently and is not an error; only damage followed by further valid
// records is. The returned error wraps ErrInteriorCorruption.
func (r *Reader) Err() error {
	if r.interior {
		return fmt.Errorf("%w: %d bytes in %d records dropped",
			ErrInteriorCorruption, r.Dropped, r.DroppedRecords)
	}
	return nil
}

// RecordStart reports the byte offset where the logical record most
// recently returned by Next begins — the header of its FULL or FIRST
// fragment. Unlike the pre-Next cursor, it is exact even when the
// reader skipped damage or block padding before reaching the record.
// Meaningful only immediately after Next returned a record.
func (r *Reader) RecordStart() int { return r.recStart }

// Halted reports whether a HaltAtCorruption reader stopped at a
// damaged record rather than the end of the log. Note that a halted
// reader never promotes the damage to interior (it cannot see whether
// valid records follow), so Err stays nil; callers in salvage mode
// consult Halted, and callers that need the interior/tail distinction
// run a second, non-halting reader.
func (r *Reader) Halted() bool { return r.halted }

// Offset reports the reader's cursor: after Next has returned false it
// is the end of the log, or — for a halted reader — the offset of the
// damaged physical record that stopped the scan.
func (r *Reader) Offset() int {
	if r.halted {
		return r.haltOff
	}
	return r.off
}

// noteValid records that a complete logical record parsed; any
// corruption seen before it was therefore interior, not a tail.
func (r *Reader) noteValid() {
	if r.pendingCorrupt {
		r.pendingCorrupt = false
		r.interior = true
	}
}

// Next returns the next logical record, or an error: io-style usage —
// (nil, false) when the log is exhausted. Corrupt fragments are
// skipped and counted in Dropped/DroppedRecords.
func (r *Reader) Next() ([]byte, bool) {
	var rec []byte
	inFragment := false
	for {
		if r.halted {
			return nil, false
		}
		prev := r.off
		frag, typ, err := r.readPhysical()
		if err != nil {
			if errors.Is(err, errEOF) {
				if inFragment {
					// Torn tail mid-record.
					r.Dropped += len(rec)
					r.DroppedRecords++
				}
				return nil, false
			}
			if r.HaltAtCorruption {
				r.halt(prev, len(rec))
				return nil, false
			}
			// Corruption: drop the damaged physical record plus any
			// accumulated fragments, then resync at the next block.
			r.pendingCorrupt = true
			r.Dropped += len(rec)
			r.DroppedRecords++
			rec = rec[:0]
			inFragment = false
			r.skipToNextBlock()
			continue
		}
		switch typ {
		case full:
			if inFragment {
				r.Dropped += len(rec)
				r.DroppedRecords++
			}
			r.noteValid()
			r.recStart = r.physStart
			return frag, true
		case first:
			if inFragment {
				r.Dropped += len(rec)
				r.DroppedRecords++
			}
			rec = append(rec[:0], frag...)
			r.recStart = r.physStart
			inFragment = true
		case middle:
			if !inFragment {
				r.Dropped += len(frag)
				r.DroppedRecords++
				continue
			}
			rec = append(rec, frag...)
		case last:
			if !inFragment {
				r.Dropped += len(frag)
				r.DroppedRecords++
				continue
			}
			r.noteValid()
			return append(rec, frag...), true
		default:
			if r.HaltAtCorruption {
				r.halt(prev, len(rec))
				return nil, false
			}
			r.pendingCorrupt = true
			r.Dropped += len(frag) + len(rec)
			r.DroppedRecords++
			rec = rec[:0]
			inFragment = false
			r.skipToNextBlock()
		}
	}
}

// halt stops a HaltAtCorruption reader at the damaged record starting
// at off; pending bytes of a partially-assembled logical record plus
// the whole unread remainder count as dropped.
func (r *Reader) halt(off, pending int) {
	r.halted = true
	r.haltOff = off
	r.Dropped += pending + len(r.data) - off
	r.DroppedRecords++
	r.off = len(r.data)
}

// RecordInfo describes one entry of a log's record stream as seen by
// ScanRecords: either a logical record that assembled and passed its
// fragment CRCs (Valid), or a damaged region that the reader skipped.
type RecordInfo struct {
	// Off is the byte offset where the entry starts; Len is the
	// payload length for valid records and the number of damaged
	// bytes skipped for invalid ones.
	Off   int
	Len   int
	Valid bool
	// Payload aliases the scanned image for valid records; nil
	// otherwise.
	Payload []byte
}

// ScanRecords walks a log image and reports every logical record with
// its offset and CRC status, interleaved with entries for damaged
// regions. It never fails: damage is reported in-stream, and a torn
// tail shows up as a final invalid entry. The triple of ScanRecords,
// Err and Dropped gives tools the full corruption taxonomy of a log.
func ScanRecords(data []byte) []RecordInfo {
	r := NewReader(data)
	var out []RecordInfo
	lastDropped := 0
	for {
		start := r.off
		rec, ok := r.Next()
		if d := r.Dropped - lastDropped; d > 0 {
			out = append(out, RecordInfo{Off: start, Len: d})
			lastDropped = r.Dropped
		}
		if !ok {
			return out
		}
		out = append(out, RecordInfo{Off: r.RecordStart(), Len: len(rec), Valid: true, Payload: rec})
	}
}

// CountRecords walks a log image without halting and returns how many
// logical records it recovers, damage skipped, and the reader's Err:
// whether valid records follow damage. A salvage-mode (halting)
// reader's caller uses it to count what the salvage left behind and to
// tell interior damage from a torn tail.
func CountRecords(data []byte) (int, error) {
	r := NewReader(data)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			return n, r.Err()
		}
		n++
	}
}

var errEOF = errors.New("wal: end of log")

func (r *Reader) skipToNextBlock() {
	if r.off%BlockSize == 0 {
		// Already at a block start (the damaged record ended exactly
		// on the boundary): resynchronization point reached, nothing
		// more to skip.
		return
	}
	next := (r.off/BlockSize + 1) * BlockSize
	if next > len(r.data) {
		next = len(r.data)
	}
	r.Dropped += next - r.off
	r.off = next
}

// readPhysical parses one physical record at the cursor.
func (r *Reader) readPhysical() (payload []byte, typ byte, err error) {
	for {
		blockLeft := BlockSize - r.off%BlockSize
		if blockLeft < headerSize {
			// Padding zone.
			pad := blockLeft
			if r.off+pad > len(r.data) {
				return nil, 0, errEOF
			}
			r.off += pad
			continue
		}
		break
	}
	r.physStart = r.off
	if r.off+headerSize > len(r.data) {
		if r.off < len(r.data) {
			r.Dropped += len(r.data) - r.off
			r.off = len(r.data)
		}
		return nil, 0, errEOF
	}
	hdr := r.data[r.off : r.off+headerSize]
	wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
	length := int(binary.LittleEndian.Uint16(hdr[4:6]))
	typ = hdr[6]
	if typ == 0 && length == 0 && wantCRC == 0 {
		// Zero padding (pre-allocated or padded tail): treat as end
		// of valid data in this block.
		return nil, 0, errEOF
	}
	if r.off+headerSize+length > len(r.data) {
		if r.off/BlockSize == (len(r.data)-1)/BlockSize {
			// Final block: a torn write — header present, payload
			// truncated by the crash.
			r.Dropped += len(r.data) - r.off
			r.off = len(r.data)
			return nil, 0, errEOF
		}
		// Not the final block: the length field itself is corrupt
		// (a true tail cannot be followed by more blocks). Resync at
		// the next block instead of abandoning the rest of the log.
		r.off += headerSize
		return nil, 0, fmt.Errorf("%w: record length overruns file", ErrCorrupt)
	}
	if r.off%BlockSize+headerSize+length > BlockSize {
		r.off += headerSize
		return nil, 0, fmt.Errorf("%w: fragment crosses block boundary", ErrCorrupt)
	}
	payload = r.data[r.off+headerSize : r.off+headerSize+length]
	crc := crc32.New(castagnoli)
	crc.Write([]byte{typ})
	crc.Write(payload)
	if crc.Sum32() != wantCRC {
		r.off += headerSize + length
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r.off += headerSize + length
	return payload, typ, nil
}
