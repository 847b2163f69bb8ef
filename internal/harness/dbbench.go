package harness

import (
	"errors"
	"fmt"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/histogram"
	"noblsm/internal/vclock"
)

// clientOps is client i's share of ops across threads: an equal split,
// the remainder to client 0. drive runs each client that many times and
// RunDBBench sizes its generator to match.
func clientOps(ops int64, threads, i int) int64 {
	n := ops / int64(threads)
	if i == 0 {
		n += ops % int64(threads)
	}
	return n
}

// RunDBBench executes one db_bench workload (Section 5.2) on the
// store: fillseq/fillrandom write, overwrite updates, readseq iterates
// every KV pair once, readrandom reads random keys. ops is the total
// request count across threads; the key space is numRecords (db_bench
// uses ops == numRecords for fills).
func RunDBBench(s *Store, start vclock.Time, workload string, ops int64, valueSize, threads int, seed int64) (Result, error) {
	gens := make([]*dbbench.Generator, threads)
	for i := range gens {
		gens[i] = dbbench.NewGenerator(workload, clientOps(ops, threads, i), seed+int64(i)*7919)
	}
	next := func(c int) (int64, error) {
		k, done := gens[c].Next()
		if done {
			return 0, fmt.Errorf("harness: %s client %d asked for more keys than its generator holds", workload, c)
		}
		return k, nil
	}

	var elapsed vclock.Duration
	var hist histogram.Histogram
	var err error
	switch workload {
	case dbbench.FillSeq, dbbench.FillRandom, dbbench.Overwrite:
		round := 0
		if workload == dbbench.Overwrite {
			round = 1
		}
		var bufs = make([][]byte, threads)
		elapsed, hist, err = drive(start, threads, ops, func(c int, tl *vclock.Timeline, _ int64) error {
			k, err := next(c)
			if err != nil {
				return err
			}
			bufs[c] = dbbench.Value(bufs[c], k, round, valueSize)
			return s.DB.Put(tl, dbbench.Key(k), bufs[c])
		})
	case dbbench.ReadRandom:
		elapsed, hist, err = drive(start, threads, ops, func(c int, tl *vclock.Timeline, _ int64) error {
			k, err := next(c)
			if err != nil {
				return err
			}
			if _, err := s.DB.Get(tl, dbbench.Key(k)); err != nil && !errors.Is(err, engine.ErrNotFound) {
				return err
			}
			return nil
		})
	case dbbench.ReadSeq:
		// Sequential iteration of all KV pairs, split across threads
		// (each thread scans its share of the key space).
		elapsed, err = driveReadSeq(s, start, threads, ops)
	default:
		return Result{}, fmt.Errorf("harness: unknown db_bench workload %q", workload)
	}
	if err != nil {
		return Result{}, err
	}
	res := s.finishResult(workload, threads, ops, elapsed)
	res.Latency = hist
	return res, nil
}

// driveReadSeq iterates sequentially, db_bench style: each thread
// scans its per-thread share of entries from the start of the store.
func driveReadSeq(s *Store, start vclock.Time, threads int, ops int64) (vclock.Duration, error) {
	per := ops / int64(threads)
	var end vclock.Time
	for t := 0; t < threads; t++ {
		tl := vclock.NewTimeline(start)
		it, err := s.DB.NewIterator(tl)
		if err != nil {
			return 0, err
		}
		n := int64(0)
		for it.First(); it.Valid() && n < per; it.Next() {
			n++
		}
		if err := it.Close(); err != nil {
			return 0, err
		}
		if tl.Now() > end {
			end = tl.Now()
		}
	}
	return end.Sub(start), nil
}
