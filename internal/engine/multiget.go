package engine

import (
	"sort"

	"noblsm/internal/keys"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// multiGetKeyDiv divides ReadCPU for the marginal per-key charge of a
// batched lookup: a batch pays the fixed per-request overhead
// (dispatch, snapshot pin, tracker poll) once, and each key only its
// share of comparator and probe work — the batching economics RocksDB
// reports for MultiGet.
const multiGetKeyDiv = 4

// MultiGet looks up a batch of keys as of one consistent read view and
// returns values and errors parallel to userKeys (a missing key yields
// ErrNotFound in its error slot; its value slot is nil).
//
// The batch is served from a single refcounted readState pinned once:
// every key sees the same {memtable, version} snapshot, and because
// the visible sequence is clamped once for the whole batch — and
// writers publish it only after a write group is fully applied — the
// batch can never observe a torn write-batch boundary. Keys are probed
// in sorted order so probes group by table within each level.
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
	tl.Advance(db.opts.ReadCPU + vclock.Duration(n)*db.opts.ReadCPU/multiGetKeyDiv)
	db.m.multiGetBatches.Inc()
	db.m.multiGetKeys.Add(int64(n))
	if db.tracker != nil {
		db.tracker.MaybePoll(tl)
	}

	// Sort key indices so each level walks tables left to right and
	// consecutive keys landing in one table share its open handle.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return keys.CompareUser(userKeys[order[a]], userKeys[order[b]]) < 0
	})

	rs := db.acquireReadState()
	released := false
	release := func() {
		if !released {
			released = true
			db.releaseReadState(rs)
		}
	}
	defer release()

	// Memtable probes resolve keys without touching any table.
	resolved := make([]bool, n)
	pending := order[:0:len(order)]
	for _, ki := range order {
		if v, deleted, found := rs.memGet(userKeys[ki], snapSeq); found {
			resolved[ki] = true
			if deleted {
				errs[ki] = ErrNotFound
			} else {
				vals[ki] = append([]byte(nil), v...)
				db.m.getHits.Inc()
			}
			continue
		}
		pending = append(pending, ki)
	}

	// Per-key seek-compaction bookkeeping, applied in one db.mu
	// acquisition after the batch (chargeSeek).
	lookups := make([]lookup, n)
	var probes, examined int64
	var batchErr error
	seekKey := make([]byte, 0, 64)
	for level := 0; level < version.NumLevels && len(pending) > 0 && batchErr == nil; level++ {
		var c tableCursor
		next := pending[:0]
		for _, ki := range pending {
			key := userKeys[ki]
			seekKey = keys.MakeInternalKey(seekKey[:0], key, snapSeq, keys.KindSeek)
			val, kind, found, err := db.probeLevel(tl, sp, &c, &lookups[ki], rs.v, level, key, seekKey)
			if err != nil {
				batchErr = err
				break
			}
			if found {
				resolved[ki] = true
				if kind == keys.KindDelete {
					errs[ki] = ErrNotFound
				} else {
					vals[ki] = val
					db.m.getHits.Inc()
				}
				continue
			}
			next = append(next, ki)
		}
		probes += c.probes
		pending = next
	}
	db.m.multiGetProbes.Add(probes)

	// Values are copied out; drop the pin before seek charging so a
	// triggered compaction sees this batch's version unreferenced.
	release()
	locked := false
	for _, lk := range lookups {
		examined += int64(lk.examined)
		if lk.examined < 2 || lk.first == nil {
			continue
		}
		if !locked {
			locked = true
			db.mu.Lock()
		}
		db.chargeSeek(tl, lk.first, lk.firstLevel)
	}
	if locked {
		db.mu.Unlock()
	}
	db.m.getFilesExamined.Add(examined)

	if batchErr != nil {
		// A table failed mid-batch (injected fault, corruption). Fall
		// back to the per-key path for everything unresolved: it owns
		// the retry/heal machinery and will either serve the key or
		// report its real error.
		sp.To(tl.Now(), obs.PhaseReadHeal)
		for ki := 0; ki < n; ki++ {
			if !resolved[ki] {
				// Keep the batch's read point: the retried keys must
				// not see writes newer than the clamped sequence.
				vals[ki], errs[ki] = db.get(tl, userKeys[ki], snapSeq)
			}
		}
	} else {
		for _, ki := range pending {
			errs[ki] = ErrNotFound
		}
	}
	sp.Finish(tl.Now())
	db.tel.ObserveRead(sp)
	return vals, errs
}
