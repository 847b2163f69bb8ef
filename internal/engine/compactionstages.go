package engine

import (
	"errors"
	"runtime"
	"sync"

	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// A major compaction's data path runs in three stages:
//
//   - the merge stage runs the merge — mergeRuns' children, Merging,
//     dropState and hot routing — over input blocks it CRC-verifies and
//     decodes itself, and cuts raw data blocks by the block-size rule;
//   - the seal stage encodes and checksums the raw blocks;
//   - the commit stage, on the compaction's own goroutine, replays in
//     log order every call one goroutine merging on the compaction's
//     timeline makes: each input block's charged read, checked to have
//     returned the bytes the merge used; the per-entry CPU and decode
//     charges; each output's file numbers, creates, block appends with
//     their encode charge, size cuts, finishes and syncs.
//
// The merge stage tells the commit stage what it did through a log of
// stageEvents, handed over in batches. Neither the merge nor the seal
// stage holds a timeline, a filesystem, a metric, a cache or the
// tracker, so the virtual history — every instant, every byte, every
// registry counter — is the commit stage's alone and cannot depend on
// how the stages interleave.
//
// The stages run on goroutines of their own when there is work to run
// beside the merge: outputs whose blocks are encoded, and a second core
// to encode them on. Then the merge runs ahead of the commit stage on
// one goroutine, peeking its input blocks (vfs.Peeker), and GOMAXPROCS
// seal goroutines each seal one batch of up to blocksPerBatch blocks at
// a time. Otherwise the stages run inline, on one goroutine: the
// commit stage applies each event as the merge logs it, makes the
// merge's reads itself, and takes a raw block's seal — a checksum — as
// it appends the block. Handing a raw block to another core costs more
// than merging it — its cache lines and a goroutine's wakeup cross with
// it — so on raw outputs the stages measured slower apart than
// together (DESIGN.md §6).
//
// The one decision the merge needs from the commit stage is where a
// table is cut, and it needs it rarely: a cut waits for the next user
// key and is only ever pending right after a data block was cut by
// size, so a raw block's contents depend on the table cut only when a
// block boundary falls inside one user key's versions (several kept
// for snapshots). There the merge asks (stageAsk) and waits; everywhere
// else it runs ahead, a bounded window of blocks in front.

// stageOp is what one stageEvent records.
type stageOp uint8

const (
	// stageLoad: leaf loads the data block at h. im is the image the
	// merge peeked; empty, the merge waits for the commit stage's read.
	stageLoad stageOp = iota
	// stageLoaded: what the merge made of leaf's last load — n, the
	// length a compressed block decoded to, and err.
	stageLoaded
	// stageEntries: the merge consumed n entries.
	stageEntries
	// stageFirst: Merging.First returned; errs holds the leaves that
	// stopped on an error, by leaf, or is nil.
	stageFirst
	// stageKeyStart: output out opens a data block with a new user key.
	stageKeyStart
	// stageBlock: output out cut the raw block blk.
	stageBlock
	// stageAsk: output out's merge side needs pendingCut.
	stageAsk
	// stageFinish: output out has no more entries.
	stageFinish
	// stageErr: the merge stopped on err.
	stageErr
	// stageDone: the merge ended.
	stageDone
)

type stageEvent struct {
	op   stageOp
	out  int8
	leaf int32
	n    int
	h    sstable.Handle
	im   sstable.Image
	blk  *sstable.RawBlock
	err  error
	errs []error
}

// stageBatch is a run of the log handed over at once.
type stageBatch struct {
	events []stageEvent
	blocks int // stageBlock events among them
	// sealing: the seal stage seals the batch's blocks and then signals
	// sealed; otherwise the commit stage seals each as it appends it.
	sealing bool
	sealed  chan struct{}
}

// stageReply answers the merge's one outstanding request: a charged
// read's image for a block the merge did not peek, or an output's
// pendingCut.
type stageReply struct {
	im  sstable.Image
	err error
	cut bool
}

const (
	// blocksPerBatch is how many cut blocks the merge collects before
	// it hands a batch over, and maxBatch how many events, when the
	// blocks do not fill it first.
	blocksPerBatch = 8
	maxBatch       = 512
	// batchesPerSealer bounds the batches in flight, and so the raw
	// blocks between the merge and the commit stage: a few per seal
	// goroutine.
	batchesPerSealer = 2
)

// errStagesStopped ends a merge whose commit stage returned.
var errStagesStopped = errors.New("engine: compaction stages stopped")

// mergeStage is a compaction's merge and its ends of the links to the
// other two stages.
type mergeStage struct {
	db               *DB
	c                *version.Compaction
	smallestSnapshot keys.SeqNum
	allowHot         bool
	in0Lo, in0Hi     []byte

	cutters [2]blockCutter
	held    *sstable.RawBlock // a block adopt took and did not fill
	leaves  []*sstable.Iter
	batch   *stageBatch
	entries int
	first   bool // Merging.First is running
	stopped bool
	blocks  int // raw blocks made so far, at most window
	window  int

	// inline, when set, is the commit stage applying each event as the
	// merge logs it, on the merge's goroutine; err is where it left
	// off, and spare the raw blocks it appended, for reuse.
	inline *commitStage
	err    error
	spare  []*sstable.RawBlock

	events chan *stageBatch       // merge → commit, in log order
	seal   chan *stageBatch       // merge → seal stage
	spent  chan *stageBatch       // commit → merge: batches to reuse
	free   chan *sstable.RawBlock // commit → merge: blocks to reuse
	reply  chan stageReply        // commit → merge
	stop   chan struct{}          // closed when the commit stage returns
	wg     sync.WaitGroup
}

// blockCutter is the merge's end of one output: the raw block it is
// filling and what the block-size and table-cut rules need to know.
type blockCutter struct {
	out      int8
	opts     sstable.Options
	blk      *sstable.RawBlock // the block being filled; nil between blocks
	lastUkey []byte
	// flushed: the output's last entry filled a block, so its table may
	// be waiting to be cut. cutPending: the commit stage said it is.
	flushed, cutPending bool
}

// commitStage replays the merge's log on the compaction's timeline.
type commitStage struct {
	bg      *vclock.Timeline
	readers []*sstable.Reader
	inputs  []*version.FileMeta
	outs    [2]*compactionOutput
	reply   chan<- stageReply
	free    chan<- *sstable.RawBlock
	spare   *[]*sstable.RawBlock // inline: where free blocks go instead
	// latent holds, once First returned, the leaves that stopped on an
	// error then without stopping the merge: tables of a run it has not
	// reached yet. A merge that stops later reports the first leaf's
	// error, in order, whichever stopped it.
	latent []error
}

// newMergeStage sets up c's merge: the snapshot it keeps versions for,
// and the range hot retention may keep at the input level. Caller holds
// db.mu.
func (db *DB) newMergeStage(c *version.Compaction) *mergeStage {
	m := &mergeStage{db: db, c: c, smallestSnapshot: db.smallestSnapshotLocked()}
	// Hot retention is one-generation: once a hot-retained file is
	// itself compacted, its keys move down. This guarantees progress
	// (no compaction can leave a level's size unchanged forever).
	m.allowHot = db.hot != nil
	for _, fm := range c.Inputs[0] {
		if fm.Hot {
			m.allowHot = false
			break
		}
	}
	// Only keys within the Inputs[0] range may be hot-retained:
	// entries outside it necessarily came from the deeper input
	// level, and promoting them up would overlap neighbouring files
	// at this level and invert version recency.
	for _, fm := range c.Inputs[0] {
		if m.in0Lo == nil || keys.CompareUser(fm.SmallestUser(), m.in0Lo) < 0 {
			m.in0Lo = fm.SmallestUser()
		}
		if m.in0Hi == nil || keys.CompareUser(fm.LargestUser(), m.in0Hi) > 0 {
			m.in0Hi = fm.LargestUser()
		}
	}
	return m
}

// runCompactionStages merges readers — c's inputs in AllInputs order —
// into outs (cold, hot). The commit stage runs on the calling
// goroutine; when the merge and seal stages run on goroutines of their
// own, it stops and joins them before it returns, whatever the outcome.
func runCompactionStages(bg *vclock.Timeline, m *mergeStage, readers []*sstable.Reader, outs [2]*compactionOutput) error {
	sealers := runtime.GOMAXPROCS(0)
	staged := sealers > 1 && (outs[0].opts.Compression.Encodes() ||
		m.allowHot && outs[1].opts.Compression.Encodes())
	batches := batchesPerSealer*sealers + 2
	m.window = batches*blocksPerBatch + len(outs)
	m.reply = make(chan stageReply, 1)
	m.stop = make(chan struct{})
	if staged {
		m.events = make(chan *stageBatch, batches)
		m.seal = make(chan *stageBatch, batches)
		m.spent = make(chan *stageBatch, batches)
		m.free = make(chan *sstable.RawBlock, m.window)
		for range batches {
			m.spent <- &stageBatch{events: make([]stageEvent, 0, maxBatch), sealed: make(chan struct{}, 1)}
		}
		m.batch = <-m.spent
	}
	for i, o := range outs {
		m.cutters[i] = blockCutter{out: int8(i), opts: o.opts}
	}
	m.leaves = make([]*sstable.Iter, len(readers))
	for i, r := range readers {
		m.leaves[i] = r.NewScanIterator(leafLog{m, int32(i)}, staged)
	}
	cs := &commitStage{bg: bg, readers: readers, inputs: m.c.AllInputs(), outs: outs, reply: m.reply, free: m.free}
	if !staged {
		m.inline, cs.spare = cs, &m.spare
		m.merge()
		return m.err
	}
	m.wg.Add(1 + sealers)
	go func() {
		defer m.wg.Done()
		defer close(m.seal)
		m.merge()
	}()
	for range sealers {
		go m.sealer()
	}
	err := cs.run(m.events, m.spent)
	close(m.stop)
	m.wg.Wait()
	return err
}

// leafLog is the merge's sstable.ScanLog for one input table.
type leafLog struct {
	m    *mergeStage
	leaf int32
}

func (l leafLog) Load(h sstable.Handle, im sstable.Image) (sstable.Image, error) {
	m := l.m
	if cs := m.inline; cs != nil {
		// Inline, the read is made here, after the entries before it,
		// with no event and no reply.
		if m.stopped {
			return sstable.Image{}, errStagesStopped
		}
		cs.consume(m.entries)
		m.entries = 0
		return cs.readers[l.leaf].ReadImage(cs.bg, h)
	}
	if m.stopped || m.first {
		// Merging.First positions every leaf, and a leaf whose first
		// read fails stops the merge only once its run reaches it: so
		// in First the merge must see each charged read's outcome, and
		// takes the commit stage's image rather than its own.
		im.Release()
		im = sstable.Image{}
	}
	if m.stopped {
		return im, errStagesStopped
	}
	m.emit(stageEvent{op: stageLoad, leaf: l.leaf, h: h, im: im})
	if im.B != nil {
		return im, nil
	}
	// Nothing peeked: the merge waits for the commit stage's read.
	r, ok := m.ask()
	if !ok {
		return sstable.Image{}, errStagesStopped
	}
	return r.im, r.err
}

func (l leafLog) Loaded(declared int, err error) {
	if cs := l.m.inline; cs != nil {
		// Nothing was consumed since Load.
		cs.readers[l.leaf].ChargeDecode(cs.bg, declared)
		return
	}
	l.m.emit(stageEvent{op: stageLoaded, leaf: l.leaf, n: declared, err: err})
}

// emit appends ev to the log, after the entries consumed since the
// last event, and hands the batch over once it is full. Once the stages
// stopped it drops ev: nothing replays it, and the batch the merge
// holds may be the one it handed over last, which a seal goroutine can
// still be reading.
func (m *mergeStage) emit(ev stageEvent) {
	if m.stopped {
		return
	}
	if cs := m.inline; cs != nil {
		// Inline, the commit stage replays each event as it is logged.
		cs.consume(m.entries)
		m.entries = 0
		if done, err := cs.apply(&ev, false); done || err != nil {
			m.stopped, m.err = true, err
		}
		return
	}
	m.logEntries()
	b := m.batch
	b.events = append(b.events, ev)
	if ev.op == stageBlock {
		b.blocks++
		b.sealing = b.sealing || ev.blk.Encodes()
	}
	if b.blocks >= blocksPerBatch || len(b.events) >= maxBatch {
		m.send()
	}
}

// logEntries logs the entries consumed since the last event.
func (m *mergeStage) logEntries() {
	if m.entries > 0 {
		m.batch.events = append(m.batch.events, stageEvent{op: stageEntries, n: m.entries})
		m.entries = 0
	}
}

// send hands the batch over — to the seal stage, when it holds blocks
// to encode, and to the commit stage — and takes an empty one; false
// once the stages stopped.
func (m *mergeStage) send() bool {
	b := m.batch
	if m.stopped || m.inline != nil || len(b.events) == 0 {
		return !m.stopped
	}
	if b.sealing {
		m.seal <- b // never blocks: the channel holds every batch
	}
	m.events <- b // never blocks either
	select {
	case m.batch = <-m.spent:
		return true
	case <-m.stop:
		m.stopped = true
		return false
	}
}

// ask hands over the batch, whose last event is a request, and waits
// for the commit stage's reply.
func (m *mergeStage) ask() (stageReply, bool) {
	if !m.send() {
		return stageReply{}, false
	}
	select {
	case r := <-m.reply:
		return r, true
	case <-m.stop:
		m.stopped = true
		return stageReply{}, false
	}
}

// merge is the merge stage.
func (m *mergeStage) merge() {
	defer func() {
		for _, it := range m.leaves {
			it.Release()
		}
	}()
	runs := mergeRuns(m.c)
	inputs := m.c.AllInputs()
	children := mergeChildren(runs, func(i int, fm *version.FileMeta) iterator.Iterator {
		return taggedIter{m.leaves[i], fm.Number}
	})
	merged := iterator.NewMerging(children...)
	m.first = true
	merged.First()
	m.first = false
	var errs []error
	for i, it := range m.leaves {
		if err := it.Err(); err != nil {
			if errs == nil {
				errs = make([]error, len(m.leaves))
			}
			errs[i] = &tableError{num: inputs[i].Number, err: err}
		}
	}
	m.emit(stageEvent{op: stageFirst, errs: errs})
	db, below := m.db, m.c.Level+1
	ds := newDropState(m.smallestSnapshot)
	// Whole input blocks may go to an output that encodes its blocks as
	// they are stored (adopt); hot routing decides entry by entry.
	adopt := !m.allowHot && m.cutters[0].opts.Compression.Encodes()
	for merged.Valid() && !m.stopped {
		m.entries++
		ikey := merged.Key()
		ukey, seq, kind, ok := keys.ParseInternalKey(ikey)
		if !ok {
			merged.Next()
			continue
		}
		if adopt && (!ds.haveLast || keys.CompareUser(ukey, ds.lastUserKey) > 0) {
			adopted, ok := m.adopt(merged, &ds)
			if !ok {
				return
			}
			if adopted {
				continue
			}
		}
		if ds.drop(db, below, ukey, seq, kind) {
			merged.Next()
			continue
		}
		c := &m.cutters[0]
		if m.allowHot &&
			keys.CompareUser(ukey, m.in0Lo) >= 0 && keys.CompareUser(ukey, m.in0Hi) <= 0 &&
			db.hot.hot(ukey, db.opts.HotThreshold) {
			// L2SM-style: frequently updated keys stay in the hot
			// zone at the input level instead of being pushed down
			// and rewritten.
			c = &m.cutters[1]
		}
		if !m.add(c, ikey, merged.Value()) {
			return
		}
		merged.Next()
	}
	if m.stopped {
		return
	}
	if err := merged.Err(); err != nil {
		m.emit(stageEvent{op: stageErr, err: err})
		m.send()
		return
	}
	for i := range m.cutters {
		c := &m.cutters[i]
		if c.blk != nil {
			m.cut(c)
		}
		m.emit(stageEvent{op: stageFinish, out: c.out})
	}
	m.emit(stageEvent{op: stageDone})
	m.send()
}

// add puts an entry into c's output: the table-cut rule's merge side,
// then the block-size rule. It reports false once the stages stopped.
func (m *mergeStage) add(c *blockCutter, ikey, value []byte) bool {
	ukey := keys.UserKey(ikey)
	newKey := c.lastUkey == nil || keys.CompareUser(ukey, c.lastUkey) != 0
	if newKey {
		if c.cutPending {
			// The table the commit stage is about to cut ends with the
			// block being filled, however short.
			if c.blk != nil {
				m.cut(c)
			}
			c.cutPending = false
		}
	} else if c.flushed && !c.cutPending {
		// The user key goes on across a block boundary: it stays in
		// its table, and whether that table is waiting to be cut at
		// the next user key decides where this block ends.
		m.emit(stageEvent{op: stageAsk, out: c.out})
		r, ok := m.ask()
		if !ok {
			return false
		}
		c.cutPending = r.cut
	}
	if c.blk == nil {
		if newKey {
			m.emit(stageEvent{op: stageKeyStart, out: c.out})
		}
		blk, ok := m.take()
		if !ok {
			return false
		}
		blk.Reset(c.opts)
		c.blk = blk
	}
	c.flushed = c.blk.Add(ikey, value)
	c.lastUkey = append(c.lastUkey[:0], ukey...)
	if c.flushed {
		m.cut(c)
	}
	return !m.stopped
}

// adopt hands the cold output the input block whose first entry is the
// merge's current one, as the block is stored, when the merge would put
// it out unchanged (sstable.Iter.AdoptBlock): the block's user keys lie
// above the last one the merge passed, which the caller checked, and
// below every other child's current one. The block being filled is cut
// short before it, the adopted block goes through the table-cut rule as
// a block cut by size does, and the merge steps past it; its entries
// are charged as if merged one by one. It reports whether it adopted,
// and false for ok once the stages stopped.
func (m *mergeStage) adopt(merged *iterator.Merging, ds *dropState) (adopted, ok bool) {
	leaf := scanAt(merged)
	if leaf == nil || !leaf.AtBlockStart() {
		return false, true
	}
	if m.held == nil {
		if m.held, ok = m.take(); !ok {
			return false, false
		}
	}
	c, blk := &m.cutters[0], m.held
	if !leaf.AdoptBlock(blk, c.opts, merged.Rival()) {
		return false, true
	}
	m.held = nil
	// The merge state its last entry leaves, taken before the block is
	// handed over: the drop rule keeps a value of a new user key.
	ukey, seq, _, _ := keys.ParseInternalKey(blk.Last())
	ds.drop(m.db, m.c.Level+1, ukey, seq, keys.KindValue)
	c.lastUkey = append(c.lastUkey[:0], ukey...)
	n := blk.Entries()
	if c.blk != nil {
		m.cut(c)
	}
	c.flushed, c.cutPending = true, false
	m.emit(stageEvent{op: stageKeyStart, out: c.out})
	m.entries += n - 1
	m.emit(stageEvent{op: stageBlock, out: c.out, blk: blk})
	if m.stopped {
		return true, false
	}
	merged.SkipBlock()
	return true, true
}

// scanAt returns the input scan at its current entry, looking through
// the merge's children and its own, or nil.
func scanAt(it iterator.Iterator) *sstable.Iter {
	for {
		switch c := it.(type) {
		case *iterator.Merging:
			it = c.Current()
		case *iterator.Concat:
			it = c.Current()
		case taggedIter:
			it = c.Iterator
		case *sstable.Iter:
			return c
		default:
			return nil
		}
	}
}

// take returns an empty raw block: one adopt held back, a new one while
// the window has room, else one the commit stage appended.
func (m *mergeStage) take() (*sstable.RawBlock, bool) {
	if blk := m.held; blk != nil {
		m.held = nil
		return blk, true
	}
	if m.inline != nil {
		// The last block appended, still warm, unless none is.
		if n := len(m.spare); n > 0 {
			blk := m.spare[n-1]
			m.spare = m.spare[:n-1]
			return blk, true
		}
		return new(sstable.RawBlock), true
	}
	select {
	case blk := <-m.free:
		return blk, true
	default:
	}
	if m.blocks < m.window {
		m.blocks++
		return new(sstable.RawBlock), true
	}
	// The window is full: hand over what the commit stage needs to free
	// a block — the batch holds one at least — then wait for one.
	if !m.send() {
		return nil, false
	}
	select {
	case blk := <-m.free:
		return blk, true
	case <-m.stop:
		m.stopped = true
		return nil, false
	}
}

// cut logs c's block, for the seal stage and then the commit stage.
func (m *mergeStage) cut(c *blockCutter) {
	blk := c.blk
	c.blk = nil
	m.emit(stageEvent{op: stageBlock, out: c.out, blk: blk})
}

// sealer is one goroutine of the seal stage.
func (m *mergeStage) sealer() {
	defer m.wg.Done()
	for b := range m.seal {
		for i := range b.events {
			if ev := &b.events[i]; ev.op == stageBlock {
				ev.blk.Seal()
			}
		}
		b.sealed <- struct{}{}
	}
}

// reset empties b for reuse.
func (b *stageBatch) reset() {
	clear(b.events)
	b.events, b.blocks, b.sealing = b.events[:0], 0, false
}

// run is the commit stage beside a merge on its own goroutine: it
// replays batches from events, handing each back to spent, until the
// merge ends or the replay meets an error.
func (cs *commitStage) run(events <-chan *stageBatch, spent chan<- *stageBatch) error {
	for b := range events {
		done, err := cs.replay(b)
		if done || err != nil {
			return err
		}
		b.reset()
		spent <- b
	}
	return errStagesStopped // the merge ended without a word: unreachable
}

// replay replays one batch of the log on cs.bg. It reports whether the
// merge ended, and returns the error the single-goroutine merge would
// have returned at the same call.
func (cs *commitStage) replay(b *stageBatch) (done bool, err error) {
	sealed := !b.sealing
	for i := range b.events {
		ev := &b.events[i]
		if ev.op == stageBlock && !sealed {
			<-b.sealed
			sealed = true
		}
		if done, err = cs.apply(ev, b.sealing); done || err != nil {
			return true, err
		}
	}
	return false, nil
}

// consume charges n merged entries.
func (cs *commitStage) consume(n int) {
	if n > 0 {
		cs.bg.Advance(compactionCPU * vclock.Duration(n))
	}
}

// apply replays one event; sealed says the seal stage sealed the block
// of a stageBlock. It reports whether the merge ended, and the error
// that ended it.
func (cs *commitStage) apply(ev *stageEvent, sealed bool) (done bool, err error) {
	switch ev.op {
	case stageLoad:
		r := cs.readers[ev.leaf]
		if ev.im.B == nil {
			// The merge waits for this read, and meets its error
			// itself.
			im, rerr := r.ReadImage(cs.bg, ev.h)
			cs.reply <- stageReply{im: im, err: rerr}
		} else if rerr := r.Replay(cs.bg, ev.h, ev.im); rerr != nil {
			// The merge peeked sound bytes; this read failed, and
			// would have stopped the merge here.
			err = &tableError{num: cs.inputs[ev.leaf].Number, err: rerr}
			for leaf := range cs.latent[:min(int(ev.leaf), len(cs.latent))] {
				if cs.latent[leaf] != nil {
					err = cs.latent[leaf]
					break
				}
			}
		}
	case stageLoaded:
		// A failed load stops the merge, which then reports it
		// (stageErr); its decode was charged only if it ran.
		cs.readers[ev.leaf].ChargeDecode(cs.bg, ev.n)
	case stageEntries:
		cs.consume(ev.n)
	case stageFirst:
		cs.latent = ev.errs
	case stageKeyStart:
		err = cs.outs[ev.out].start()
	case stageBlock:
		if !sealed {
			ev.blk.Seal()
		}
		err = cs.outs[ev.out].append(ev.blk)
		if cs.spare != nil {
			*cs.spare = append(*cs.spare, ev.blk)
		} else {
			cs.free <- ev.blk // never blocks: the channel holds the window
		}
	case stageAsk:
		cs.reply <- stageReply{cut: cs.outs[ev.out].pendingCut}
	case stageFinish:
		err = cs.outs[ev.out].cut()
	case stageErr:
		return true, ev.err
	case stageDone:
		return true, nil
	}
	return err != nil, err
}
