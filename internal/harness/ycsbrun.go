package harness

import (
	"errors"

	"noblsm/internal/engine"
	"noblsm/internal/vclock"
	"noblsm/internal/ycsb"
)

// RunYCSBLoad fills the store with records (the Load-A / Load-E phases
// clear the data set and insert 50 M 1 KB pairs in the paper; the
// caller scales the count).
func RunYCSBLoad(s *Store, start vclock.Time, name string, records int64, valueSize, threads int, seed int64) (Result, error) {
	bufs := make([][]byte, threads)
	per := records / int64(threads)
	elapsed, hist, err := drive(start, threads, records, func(c int, tl *vclock.Timeline, i int64) error {
		keyNum := int64(c)*per + i
		bufs[c] = ycsbValue(bufs[c], keyNum, valueSize)
		return s.DB.Put(tl, ycsb.Key(keyNum), bufs[c])
	})
	if err != nil {
		return Result{}, err
	}
	res := s.finishResult(name, threads, records, elapsed)
	res.Latency = hist
	return res, nil
}

// RunYCSB executes one core workload phase of ops total requests over
// a store loaded with records.
func RunYCSB(s *Store, start vclock.Time, wl ycsb.Workload, records, ops int64, valueSize, threads int, seed int64) (Result, error) {
	gens := make([]*ycsb.Generator, threads)
	for i := range gens {
		gens[i] = ycsb.NewGenerator(wl, records, seed+int64(i)*104729)
	}
	bufs := make([][]byte, threads)
	elapsed, hist, err := drive(start, threads, ops, func(c int, tl *vclock.Timeline, i int64) error {
		op := gens[c].Next()
		switch op.Kind {
		case ycsb.OpRead:
			if _, err := s.DB.Get(tl, ycsb.Key(op.KeyNum)); err != nil && !errors.Is(err, engine.ErrNotFound) {
				return err
			}
			return nil
		case ycsb.OpUpdate, ycsb.OpInsert:
			bufs[c] = ycsbValue(bufs[c], op.KeyNum+i, valueSize)
			return s.DB.Put(tl, ycsb.Key(op.KeyNum), bufs[c])
		case ycsb.OpScan:
			it, err := s.DB.NewIterator(tl)
			if err != nil {
				return err
			}
			it.Seek(ycsb.Key(op.KeyNum))
			for n := 0; it.Valid() && n < op.ScanLen; n++ {
				it.Next()
			}
			return it.Close()
		case ycsb.OpReadModifyWrite:
			if _, err := s.DB.Get(tl, ycsb.Key(op.KeyNum)); err != nil && !errors.Is(err, engine.ErrNotFound) {
				return err
			}
			bufs[c] = ycsbValue(bufs[c], op.KeyNum+i, valueSize)
			return s.DB.Put(tl, ycsb.Key(op.KeyNum), bufs[c])
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := s.finishResult(wl.Name, threads, ops, elapsed)
	res.Latency = hist
	return res, nil
}

// ycsbValue produces a deterministic value of size bytes.
func ycsbValue(dst []byte, seed int64, size int) []byte {
	dst = dst[:0]
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for len(dst) < size {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b := byte('A' + (s>>40)%26)
		run := int(s>>59)%6 + 1
		for j := 0; j < run && len(dst) < size; j++ {
			dst = append(dst, b)
		}
	}
	return dst
}
