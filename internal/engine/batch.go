package engine

import (
	"encoding/binary"
	"errors"

	"noblsm/internal/keys"
	"noblsm/internal/memtable"
)

// Batch collects writes applied atomically, in LevelDB's WriteBatch
// wire format: an 8-byte little-endian sequence number, a 4-byte
// count, then per record a kind byte, a length-prefixed key and (for
// puts) a length-prefixed value. The same bytes are the WAL record.
type Batch struct {
	rep []byte
}

const batchHeaderLen = 12

// ErrBadBatch reports a malformed batch encoding (e.g. recovered from
// a damaged log).
var ErrBadBatch = errors.New("engine: malformed write batch")

// init starts an empty batch with a zeroed header, on the capacity a
// Clear kept when there is one; a fresh buffer is sized once for the
// n-byte record about to be appended (a 1 KB Put used to outgrow a
// 76-byte first guess straight away).
func (b *Batch) init(n int) {
	if len(b.rep) != 0 {
		return
	}
	if cap(b.rep) < batchHeaderLen {
		b.rep = make([]byte, batchHeaderLen, batchHeaderLen+n)
		return
	}
	b.rep = b.rep[:batchHeaderLen]
	clear(b.rep)
}

// Put queues a key/value insertion.
func (b *Batch) Put(key, value []byte) {
	b.init(1 + 2*binary.MaxVarintLen32 + len(key) + len(value))
	b.rep = append(b.rep, byte(keys.KindValue))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.rep = binary.AppendUvarint(b.rep, uint64(len(value)))
	b.rep = append(b.rep, value...)
	b.setCount(b.Count() + 1)
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.init(1 + binary.MaxVarintLen32 + len(key))
	b.rep = append(b.rep, byte(keys.KindDelete))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.setCount(b.Count() + 1)
}

// Clear empties the batch for reuse; the buffer is kept.
func (b *Batch) Clear() { b.rep = b.rep[:0] }

// Count reports the queued record count.
func (b *Batch) Count() uint32 {
	if len(b.rep) < batchHeaderLen {
		return 0
	}
	return binary.LittleEndian.Uint32(b.rep[8:12])
}

func (b *Batch) setCount(n uint32) { binary.LittleEndian.PutUint32(b.rep[8:12], n) }

// Seq reports the base sequence number.
func (b *Batch) Seq() keys.SeqNum {
	if len(b.rep) < batchHeaderLen {
		return 0
	}
	return keys.SeqNum(binary.LittleEndian.Uint64(b.rep[0:8]))
}

func (b *Batch) setSeq(s keys.SeqNum) { binary.LittleEndian.PutUint64(b.rep[0:8], uint64(s)) }

// Size reports the encoded byte size.
func (b *Batch) Size() int { return len(b.rep) }

// decodeBatch wraps an encoded representation (e.g. a WAL record).
func decodeBatch(rep []byte) (*Batch, error) {
	if len(rep) < batchHeaderLen {
		return nil, ErrBadBatch
	}
	return &Batch{rep: append([]byte(nil), rep...)}, nil
}

// forEach decodes the records, invoking fn with each (kind, key,
// value, offset-in-batch).
func (b *Batch) forEach(fn func(kind keys.Kind, key, value []byte, idx uint32) error) error {
	p := b.rep[batchHeaderLen:]
	var idx uint32
	for len(p) > 0 {
		kind := keys.Kind(p[0])
		p = p[1:]
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < klen {
			return ErrBadBatch
		}
		key := p[n : n+int(klen)]
		p = p[n+int(klen):]
		var value []byte
		switch kind {
		case keys.KindValue:
			vlen, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < vlen {
				return ErrBadBatch
			}
			value = p[n : n+int(vlen)]
			p = p[n+int(vlen):]
		case keys.KindDelete:
		default:
			return ErrBadBatch
		}
		if err := fn(kind, key, value, idx); err != nil {
			return err
		}
		idx++
	}
	if idx != b.Count() {
		return ErrBadBatch
	}
	return nil
}

// applyTo inserts the batch into a memtable with its sequence numbers.
func (b *Batch) applyTo(m *memtable.MemTable) error {
	base := b.Seq()
	return b.forEach(func(kind keys.Kind, key, value []byte, idx uint32) error {
		m.Add(base+keys.SeqNum(idx), kind, key, value)
		return nil
	})
}
