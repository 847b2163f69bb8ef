package engine

import (
	"sort"

	"noblsm/internal/keys"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// multiGetKeyDiv divides readCPU for the marginal per-key charge of a
// batched lookup: a batch pays the fixed per-request overhead
// (dispatch, snapshot pin, tracker poll) once, and each key only its
// share of comparator and probe work — the batching economics RocksDB
// reports for MultiGet.
const multiGetKeyDiv = 4

// MultiGet looks up a batch of keys as of one consistent read view and
// returns values and errors parallel to userKeys (a missing key yields
// ErrNotFound in its error slot; its value slot is nil).
//
// The batch is one walk (resolve) over a single refcounted readState
// pinned once: every key sees the same {memtable, version} snapshot,
// and because the visible sequence is clamped once for the whole batch
// — and writers publish it only after a write group is fully applied —
// the batch can never observe a torn write-batch boundary. Keys are
// probed in sorted order so probes group by table within each level.
func (db *DB) MultiGet(tl *vclock.Timeline, userKeys [][]byte) ([][]byte, []error) {
	return db.MultiGetAt(tl, userKeys, keys.MaxSeqNum)
}

// MultiGetAt is MultiGet as of snapSeq (the snapshot batch-read path).
func (db *DB) MultiGetAt(tl *vclock.Timeline, userKeys [][]byte, snapSeq keys.SeqNum) ([][]byte, []error) {
	n := len(userKeys)
	vals := make([][]byte, n)
	errs := make([]error, n)
	if n == 0 {
		return vals, errs
	}
	if db.closed.Load() {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return vals, errs
	}
	// Clamp once for the whole batch: this is the batch's read point.
	if vis := db.visibleSeq.Load(); snapSeq > vis {
		snapSeq = vis
	}

	var span obs.OpSpan
	var sp *obs.OpSpan
	if db.tel != nil {
		sp = &span
		sp.Begin(tl.Now(), obs.PhaseReadMem)
	}
	// Fixed per-request overhead once, marginal cost per key.
	tl.Advance(readCPU + vclock.Duration(n)*readCPU/multiGetKeyDiv)
	db.m.multiGetBatches.Inc()
	db.m.multiGetKeys.Add(int64(n))
	if db.tracker != nil {
		db.tracker.MaybePoll(tl)
	}

	reads := make([]pointRead, n)
	order := make([]int, n)
	for i := range reads {
		reads[i].key = userKeys[i]
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return keys.CompareUser(userKeys[order[a]], userKeys[order[b]]) < 0
	})
	probes, err := db.resolve(tl, sp, reads, order, snapSeq)
	db.m.multiGetProbes.Add(probes)
	db.chargeLookups(tl, reads)
	if err != nil {
		// A table failed mid-batch (injected fault, corruption): the
		// per-key path, which owns the retry/heal machinery, serves
		// every key the walk left or reports its real error.
		sp.To(tl.Now(), obs.PhaseReadHeal)
	}
	for i := range reads {
		if reads[i].done {
			vals[i], errs[i] = reads[i].val, reads[i].err
		} else {
			// Keep the batch's read point: the retried keys must not
			// see writes newer than the clamped sequence.
			vals[i], errs[i] = db.get(tl, userKeys[i], snapSeq)
		}
	}
	sp.Finish(tl.Now())
	db.tel.ObserveRead(sp)
	return vals, errs
}
