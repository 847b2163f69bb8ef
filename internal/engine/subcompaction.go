package engine

// Parallel key-range subcompactions with a pipelined read→merge→write
// engine (Options.CompactionSubcompactions, goroutine executor only).
//
// A picked compaction's user-key range is split into disjoint shards
// at input-file boundaries (version.Compaction.SubcompactionBoundaries
// — RocksDB's scheme), so all versions of a user key stay in one shard
// and the per-user-key retention logic needs no cross-shard state.
// Each shard runs its own three-stage pipeline:
//
//	read stage   one prefetch goroutine per input table walks the
//	             index and streams parsed data blocks (zero-copy
//	             page-cache views where the filesystem supports
//	             vfs.ViewReader, pooled buffers otherwise) over a
//	             bounded channel, charging block loads to the shard's
//	             read timeline;
//	merge stage  the shard goroutine k-way-merges the prefetched
//	             streams, applies the version-retention rules and
//	             feeds surviving entries to the table builder,
//	             charging CompactionCPU to the merge timeline;
//	write stage  a writer goroutine drains the builder's output
//	             through pipeFile — appends and fsyncs execute there,
//	             on the shard's write timeline, so simulated write
//	             latency overlaps merge CPU and block reads.
//
// All shards' outputs are installed by doCompaction in a SINGLE
// VersionEdit followed by a single tracker registration, so the NobLSM
// predecessor/successor set is always complete: a crash anywhere
// before the edit leaves the old version (and every input table)
// intact, never a partial successor set.
//
// The inline executor never enters this path — the
// deterministic virtual-time figures depend on the sequential merge's
// exact event order.

import (
	"sync"

	"noblsm/internal/block"
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/obs"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// Bounded-channel depths of the pipeline stages. Two in-flight blocks
// per input keep the merge fed without holding a table's worth of
// pooled buffers; the write queue is deeper because appends are small
// and bursty (every ~4 KiB block plus the table epilogue).
const (
	prefetchDepth   = 2
	writeStageDepth = 16
)

// maxSubcompactions caps Options.CompactionSubcompactions; with three
// trace rows per shard the pipeline tids stay below obs.TidJournal.
const maxSubcompactions = 16

// dropState tracks per-user-key version retention across one merge
// stream: within one user key (versions arrive newest first) an entry
// is dropped if a newer one is already visible at the oldest live
// snapshot; tombstones at or below that snapshot are dropped when no
// deeper level can hold the key. Identical to the sequential merge's
// inline logic — shard splitting at user-key granularity is what makes
// the per-shard state sufficient.
type dropState struct {
	smallestSnapshot keys.SeqNum
	lastUserKey      []byte
	haveLast         bool
	lastSeqForKey    keys.SeqNum
}

func newDropState(snap keys.SeqNum) dropState {
	return dropState{smallestSnapshot: snap, lastSeqForKey: keys.MaxSeqNum}
}

func (d *dropState) drop(db *DB, below int, ukey []byte, seq keys.SeqNum, kind keys.Kind) bool {
	if !d.haveLast || keys.CompareUser(ukey, d.lastUserKey) != 0 {
		d.lastUserKey = append(d.lastUserKey[:0], ukey...)
		d.haveLast = true
		d.lastSeqForKey = keys.MaxSeqNum
	}
	drop := false
	if d.lastSeqForKey <= d.smallestSnapshot {
		// A newer version of this key is visible at every live
		// snapshot: this one is shadowed.
		drop = true
	} else if kind == keys.KindDelete && seq <= d.smallestSnapshot &&
		db.isBaseLevelForKey(below, ukey) {
		// Tombstone with nothing underneath and no snapshot that
		// could still need it.
		drop = true
	}
	d.lastSeqForKey = seq
	return drop
}

// fetchedBlock is one prefetched, parsed data block in flight between
// the read and merge stages. owned is the pooled buffer backing it
// (nil for zero-copy views), recycled by whoever consumes the block.
type fetchedBlock struct {
	br    *block.Reader
	owned []byte
}

// prefetchBlocks is the read stage for one input table: it pulls
// blocks from src on its own goroutine and hands them to the merge
// stage over a bounded channel. Closing cancel releases the stage
// early; the terminal error (nil on clean EOF) is delivered on the
// returned error channel just before the block channel closes.
func prefetchBlocks(src *sstable.BlockSource, cancel <-chan struct{}) (<-chan fetchedBlock, <-chan error) {
	ch := make(chan fetchedBlock, prefetchDepth)
	errCh := make(chan error, 1)
	go func() {
		defer close(ch)
		for {
			br, owned, ok := src.Next()
			if !ok {
				errCh <- src.Err()
				return
			}
			select {
			case ch <- fetchedBlock{br: br, owned: owned}:
			case <-cancel:
				if owned != nil {
					sstable.ReleaseBlockBuf(owned)
				}
				errCh <- nil
				return
			}
		}
	}()
	return ch, errCh
}

// prefetchIter adapts one prefetched block stream to
// iterator.Iterator for the shard's k-way merge. It is only ever
// driven by First/Next (the shard seeds the position via the seek
// key, applied inside the first block).
type prefetchIter struct {
	ch    <-chan fetchedBlock
	errCh <-chan error
	seek  []byte
	cur   *block.Iter
	owned []byte
	err   error
}

func (it *prefetchIter) nextBlock() bool {
	if it.owned != nil {
		sstable.ReleaseBlockBuf(it.owned)
		it.owned = nil
	}
	fb, ok := <-it.ch
	if !ok {
		it.cur = nil
		if it.err == nil {
			it.err = <-it.errCh
		}
		return false
	}
	it.cur = fb.br.NewIter()
	it.owned = fb.owned
	return true
}

// First implements iterator.Iterator.
func (it *prefetchIter) First() {
	for it.nextBlock() {
		if it.seek != nil {
			it.cur.Seek(it.seek)
			it.seek = nil
		} else {
			it.cur.First()
		}
		if it.cur.Valid() {
			return
		}
	}
}

// Seek implements iterator.Iterator; the shard merge never uses it.
func (it *prefetchIter) Seek([]byte) {
	panic("prefetchIter: Seek is not supported; position is set by the shard bounds")
}

// Next implements iterator.Iterator.
func (it *prefetchIter) Next() {
	if it.cur == nil || !it.cur.Valid() {
		return
	}
	it.cur.Next()
	for !it.cur.Valid() {
		if !it.nextBlock() {
			return
		}
		it.cur.First()
	}
}

// Valid implements iterator.Iterator.
func (it *prefetchIter) Valid() bool { return it.cur != nil && it.cur.Valid() }

// Key implements iterator.Iterator.
func (it *prefetchIter) Key() []byte { return it.cur.Key() }

// Value implements iterator.Iterator.
func (it *prefetchIter) Value() []byte { return it.cur.Value() }

// Err implements iterator.Iterator.
func (it *prefetchIter) Err() error {
	if it.err != nil {
		return it.err
	}
	if it.cur != nil {
		return it.cur.Err()
	}
	return nil
}

// release recycles the iterator's current block buffer.
func (it *prefetchIter) release() {
	if it.owned != nil {
		sstable.ReleaseBlockBuf(it.owned)
		it.owned = nil
	}
}

var _ iterator.Iterator = (*prefetchIter)(nil)

// appendBufPool recycles the write stage's copies of builder output
// (one per data block plus the table epilogue).
var appendBufPool sync.Pool

func getAppendBuf(p []byte) []byte {
	if v := appendBufPool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= len(p) {
			b = b[:len(p)]
			copy(b, p)
			return b
		}
	}
	return append([]byte(nil), p...)
}

func putAppendBuf(b []byte) {
	b = b[:cap(b)]
	appendBufPool.Put(&b)
}

// pipeOp is one queued write-stage operation: an owned append buffer,
// or a sync barrier for the file the durability policy targets.
type pipeOp struct {
	f    vfs.File
	buf  []byte
	sync bool
}

// pipeWriter is the write stage of one shard: a single goroutine
// executing queued appends and fsyncs in order on the shard's write
// timeline. Errors are sticky; after the first one the stage keeps
// draining (recycling buffers) but performs no further I/O.
type pipeWriter struct {
	tl *vclock.Timeline
	ch chan pipeOp
	wg sync.WaitGroup

	mu  sync.Mutex
	err error
}

func newPipeWriter(tl *vclock.Timeline) *pipeWriter {
	pw := &pipeWriter{tl: tl, ch: make(chan pipeOp, writeStageDepth)}
	pw.wg.Add(1)
	go pw.run()
	return pw
}

func (pw *pipeWriter) run() {
	defer pw.wg.Done()
	for op := range pw.ch {
		err := pw.firstErr()
		switch {
		case op.buf != nil:
			if err == nil {
				err = op.f.Append(pw.tl, op.buf)
			}
			putAppendBuf(op.buf)
		case op.sync:
			if err == nil {
				err = op.f.Sync(pw.tl)
			}
		}
		if err != nil {
			pw.setErr(err)
		}
	}
}

func (pw *pipeWriter) setErr(err error) {
	pw.mu.Lock()
	if pw.err == nil {
		pw.err = err
	}
	pw.mu.Unlock()
}

func (pw *pipeWriter) firstErr() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.err
}

// finish closes the queue, waits for it to drain and reports the
// stage's first error.
func (pw *pipeWriter) finish() error {
	close(pw.ch)
	pw.wg.Wait()
	return pw.firstErr()
}

// pipeFile is the vfs.File the shard's table builder writes through:
// Append and Sync are queued to the write stage (charged to the write
// timeline), while Size is tracked locally so the per-entry cut check
// never takes the filesystem lock. Close and ReadAt act on the real
// file directly — the engine only uses them after the stage drained.
type pipeFile struct {
	real vfs.File
	pw   *pipeWriter
	size int64
}

func (p *pipeFile) Append(_ *vclock.Timeline, b []byte) error {
	if err := p.pw.firstErr(); err != nil {
		return err
	}
	p.size += int64(len(b))
	p.pw.ch <- pipeOp{f: p.real, buf: getAppendBuf(b)}
	return nil
}

// Sync queues an fsync barrier behind the file's pending appends; an
// error surfaces at the stage's finish (the sharded path re-checks
// before the compaction installs anything).
func (p *pipeFile) Sync(_ *vclock.Timeline) error {
	if err := p.pw.firstErr(); err != nil {
		return err
	}
	p.pw.ch <- pipeOp{f: p.real, sync: true}
	return nil
}

func (p *pipeFile) ReadAt(tl *vclock.Timeline, b []byte, off int64) (int, error) {
	return p.real.ReadAt(tl, b, off)
}

func (p *pipeFile) Close(tl *vclock.Timeline) error { return p.real.Close(tl) }

func (p *pipeFile) Size() int64 { return p.size }

func (p *pipeFile) Ino() int64 { return p.real.Ino() }

var _ vfs.File = (*pipeFile)(nil)

// shardResult is one subcompaction's outcome.
type shardResult struct {
	files []*outputFile
	end   vclock.Time
	err   error
}

// runSubcompactions executes the sharded merge for c: one pipeline per
// key-range shard, all running concurrently. Called WITHOUT db.mu (the
// background worker released it); version state read here (db.current
// via isBaseLevelForKey) is stable because version edits are
// serialized while the worker is active. On success the returned
// outputs are ordered by shard — ascending, disjoint key ranges. bg
// advances to the virtual completion of the slowest shard stage.
func (db *DB) runSubcompactions(bg *vclock.Timeline, c *version.Compaction, boundaries [][]byte, smallestSnapshot keys.SeqNum) ([]*outputFile, error) {
	n := len(boundaries) + 1
	start := bg.Now()
	db.m.activeSubcompactions.Set(int64(n))
	defer db.m.activeSubcompactions.Set(0)
	results := make([]shardResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var lo, hi []byte
		if i > 0 {
			lo = boundaries[i-1]
		}
		if i < len(boundaries) {
			hi = boundaries[i]
		}
		wg.Add(1)
		go func(i int, lo, hi []byte) {
			defer wg.Done()
			results[i] = db.runShard(c, i, lo, hi, start, smallestSnapshot)
		}(i, lo, hi)
	}
	wg.Wait()

	var outputs []*outputFile
	var firstErr error
	end := start
	for _, res := range results {
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		if res.end > end {
			end = res.end
		}
		outputs = append(outputs, res.files...)
	}
	bg.WaitUntil(end)
	db.m.subcompactions.Observe(int64(n))
	if firstErr != nil {
		// Abort: the compaction installs nothing. A failed shard has
		// abandoned its own outputs; these are the other shards'.
		db.abandonOutputs(bg, outputs)
		return nil, firstErr
	}
	return outputs, nil
}

// runShard executes one subcompaction over user keys in [lo, hi)
// (nil = unbounded) through the three-stage pipeline.
func (db *DB) runShard(c *version.Compaction, idx int, lo, hi []byte, startAt vclock.Time, smallestSnapshot keys.SeqNum) shardResult {
	readTl := vclock.NewTimeline(startAt)
	mergeTl := vclock.NewTimeline(startAt)
	writeTl := vclock.NewTimeline(startAt)

	var loIkey, hiIkey []byte
	if lo != nil {
		loIkey = keys.MakeInternalKey(nil, lo, keys.MaxSeqNum, keys.KindSeek)
	}
	if hi != nil {
		hiIkey = keys.MakeInternalKey(nil, hi, keys.MaxSeqNum, keys.KindSeek)
	}

	cancel := make(chan struct{})
	var children []iterator.Iterator
	var chans []<-chan fetchedBlock
	finish := func(err error) shardResult {
		close(cancel)
		for _, child := range children {
			child.(*prefetchIter).release()
		}
		// Unblock and retire the prefetch goroutines, recycling any
		// blocks still in flight.
		for _, ch := range chans {
			for fb := range ch {
				if fb.owned != nil {
					sstable.ReleaseBlockBuf(fb.owned)
				}
			}
		}
		end := readTl.Now()
		if mergeTl.Now() > end {
			end = mergeTl.Now()
		}
		if writeTl.Now() > end {
			end = writeTl.Now()
		}
		return shardResult{end: end, err: err}
	}

	pw := newPipeWriter(writeTl)
	out := &compactionOutput{db: db, bg: writeTl, targetLevel: c.Level + 1,
		create: func(tl *vclock.Timeline, name string) (vfs.File, error) {
			f, err := db.fs.Create(tl, name)
			if err != nil {
				return nil, err
			}
			return &pipeFile{real: f, pw: pw}, nil
		}}

	for _, fm := range c.AllInputs() {
		r, err := db.tcache.open(readTl, fm)
		if err != nil {
			res := finish(err)
			pw.finish()
			return res
		}
		ch, errCh := prefetchBlocks(r.NewBlockSource(readTl, loIkey, hiIkey), cancel)
		chans = append(chans, ch)
		children = append(children, &prefetchIter{ch: ch, errCh: errCh, seek: loIkey})
	}

	ds := newDropState(smallestSnapshot)
	merged := iterator.NewMerging(children...)
	var mergeErr error
	for merged.First(); merged.Valid(); merged.Next() {
		mergeTl.Advance(db.opts.CompactionCPU)
		ikey := merged.Key()
		ukey, seq, kind, ok := keys.ParseInternalKey(ikey)
		if !ok {
			continue
		}
		if hi != nil && keys.CompareUser(ukey, hi) >= 0 {
			// The merge emits in key order: everything from here on
			// belongs to the next shard.
			break
		}
		if ds.drop(db, c.Level+1, ukey, seq, kind) {
			continue
		}
		if err := out.add(ikey, merged.Value()); err != nil {
			mergeErr = err
			break
		}
	}
	if mergeErr == nil {
		mergeErr = merged.Err()
	}
	if mergeErr == nil {
		mergeErr = out.finish()
	}

	res := finish(mergeErr)
	if err := pw.finish(); err != nil && res.err == nil {
		res.err = err
	}
	if res.err != nil {
		out.abandon()
	}
	res.files = out.files
	if res.err == nil && db.trace != nil {
		tid := obs.TidSubcompactionBase + idx*3
		db.trace.Span(tid, "compaction", "compaction.shard.read", startAt, readTl.Now(),
			obs.KV{K: "shard", V: idx})
		db.trace.Span(tid+1, "compaction", "compaction.shard.merge", startAt, mergeTl.Now(),
			obs.KV{K: "shard", V: idx}, obs.KV{K: "outputs", V: len(out.files)})
		db.trace.Span(tid+2, "compaction", "compaction.shard.write", startAt, writeTl.Now(),
			obs.KV{K: "shard", V: idx})
	}
	return res
}
