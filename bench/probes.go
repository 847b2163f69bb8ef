package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"time"

	"noblsm/internal/block"
	"noblsm/internal/bloom"
	"noblsm/internal/cache"
	"noblsm/internal/compress"
	"noblsm/internal/ext4"
	"noblsm/internal/iterator"
	"noblsm/internal/keys"
	"noblsm/internal/memtable"
	"noblsm/internal/server/wire"
	"noblsm/internal/ssd"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/wal"
)

// Layer probes give host unit costs for layers that cannot be timed
// from outside on the live path. Each probe times one public function
// on inputs drawn from the workload's own key and value stream, for at
// least probeTime, and the fastest of probeRounds rounds counts.
const (
	probeTime   = 40 * time.Millisecond
	probeRounds = 3
	probeKeys   = 4096
)

// probeInput is the workload's keys (sorted, unique) with one value
// each, plus as many keys the store never holds.
type probeInput struct {
	ukeys, ikeys, values, absent [][]byte
}

func newProbeInput(w *workload) *probeInput {
	n := int64(probeKeys)
	if n > w.records {
		n = w.records
	}
	in := &probeInput{}
	stride := w.records / n
	for i := int64(0); i < n; i++ {
		in.ukeys = append(in.ukeys, w.key(i*stride))
		in.values = append(in.values, w.value(nil, i*stride, 0))
		in.absent = append(in.absent, w.key(w.records+i))
	}
	// Sorted by key, values along: the builders need sorted input.
	sort.Sort(byKey{in})
	for i, k := range in.ukeys {
		in.ikeys = append(in.ikeys, keys.MakeInternalKey(nil, k, keys.SeqNum(i+1), keys.KindValue))
	}
	return in
}

type byKey struct{ in *probeInput }

func (b byKey) Len() int           { return len(b.in.ukeys) }
func (b byKey) Less(i, j int) bool { return bytes.Compare(b.in.ukeys[i], b.in.ukeys[j]) < 0 }
func (b byKey) Swap(i, j int) {
	b.in.ukeys[i], b.in.ukeys[j] = b.in.ukeys[j], b.in.ukeys[i]
	b.in.values[i], b.in.values[j] = b.in.values[j], b.in.values[i]
}

// timeLoopFor calls fn(i) with i = 0, 1, 2, … for at least d and
// returns the mean ns per call of the fastest round. setup, when not
// nil, runs untimed before each round.
func timeLoopFor(d time.Duration, setup func(), fn func(i int)) float64 {
	best := 0.0
	for r := 0; r < probeRounds; r++ {
		if setup != nil {
			setup()
		}
		n, start := 0, time.Now()
		var el time.Duration
		for el < d {
			for j := 0; j < 256; j++ {
				fn(n)
				n++
			}
			el = time.Since(start)
		}
		if per := float64(el) / float64(n); best == 0 || per < best {
			best = per
		}
	}
	return best
}

var probeSink int

// runProbes times every probed layer and returns the per-layer metrics
// they feed.
func runProbes(w *workload) (map[string]float64, error) {
	in := newProbeInput(w)
	n := len(in.ukeys)
	d := probeTime
	if w.quick {
		d = time.Millisecond // the tests check that a probe runs, not what it reads
	}
	timeLoop := func(setup func(), fn func(i int)) float64 { return timeLoopFor(d, setup, fn) }
	out := map[string]float64{}
	opts := w.options()
	tl := vclock.NewTimeline(0)
	fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))

	// wal: one record per Put, key and value in one payload.
	payload := append(append([]byte{}, in.ukeys[0]...), in.values[0]...)
	var ww *wal.Writer
	walRound := 0
	out["wal.append_ns"] = timeLoop(func() {
		walRound++
		f, err := fs.Create(tl, fmt.Sprintf("probe-%d.log", walRound))
		if err != nil {
			panic(err) // a fresh in-memory filesystem cannot refuse a create
		}
		ww = wal.NewWriter(f)
	}, func(int) { _ = ww.AddRecord(tl, payload) })

	// memtable
	var mt *memtable.MemTable
	out["memtable.insert_ns"] = timeLoop(func() { mt = memtable.New(1) }, func(i int) {
		mt.Add(keys.SeqNum(i+1), keys.KindValue, in.ukeys[i%n], in.values[i%n])
	})
	mt = memtable.New(1)
	for i := range in.ukeys {
		mt.Add(keys.SeqNum(i+1), keys.KindValue, in.ukeys[i], in.values[i])
	}
	out["memtable.get_ns"] = timeLoop(nil, func(i int) {
		if _, _, found := mt.Get(in.ukeys[i%n], keys.MaxSeqNum); found {
			probeSink++
		}
	})

	out["keys.compare_ns"] = timeLoop(nil, func(i int) {
		probeSink += keys.CompareInternal(in.ikeys[i%n], in.ikeys[(i+1)%n])
	})

	// block: one data block of the workload's block size.
	bb := block.NewBuilder(16)
	perBlock := 0
	for perBlock < n && bb.EstimatedSize() < opts.BlockSize {
		bb.Add(in.ikeys[perBlock], in.values[perBlock])
		perBlock++
	}
	blockData := append([]byte(nil), bb.Finish()...)
	out["block.build_ns_per_entry"] = timeLoop(nil, func(int) {
		bb.Reset()
		for j := 0; j < perBlock; j++ {
			bb.Add(in.ikeys[j], in.values[j])
		}
		probeSink += len(bb.Finish())
	}) / float64(perBlock)
	br, err := block.NewReader(blockData, keys.CompareInternal)
	if err != nil {
		return nil, fmt.Errorf("probe block: %w", err)
	}
	bit := br.NewIter()
	out["block.seek_ns"] = timeLoop(nil, func(i int) {
		bit.Seek(in.ikeys[i%perBlock])
		if bit.Valid() {
			probeSink++
		}
	})

	// bloom, at the bits per key the workload's L0 tables get.
	bits := opts.BloomBitsPerKey
	if len(opts.BloomBitsPerKeyByLevel) > 0 {
		bits = opts.BloomBitsPerKeyByLevel[0]
	}
	bf := bloom.New(bits)
	filter := bf.Build(nil, in.ukeys)
	out["bloom.maycontain_ns"] = timeLoop(nil, func(i int) {
		if bf.MayContain(filter, in.ukeys[i%n]) {
			probeSink++
		}
	})
	falsePositives := 0
	for _, k := range in.absent {
		if bf.MayContain(filter, k) {
			falsePositives++
		}
	}
	out["bloom.fp_rate"] = float64(falsePositives) / float64(len(in.absent))

	// compress, on the data block above with the fast codec (what hot
	// levels use when compression is on).
	enc := compress.Encode(nil, blockData, compress.LevelFast)
	out["compress.ratio"] = float64(len(blockData)) / float64(len(enc))
	var scratch []byte
	encNs := timeLoop(nil, func(int) { scratch = compress.Encode(scratch[:0], blockData, compress.LevelFast) })
	out["compress.encode_mb_per_s"] = float64(len(blockData)) / encNs * 1e3
	decNs := timeLoop(nil, func(int) {
		var err error
		if scratch, err = compress.Decode(scratch[:0], enc); err != nil {
			panic(err) // the codec must decode what it just encoded
		}
	})
	out["compress.decode_mb_per_s"] = float64(len(blockData)) / decNs * 1e3

	// sstable: build a table of the probe keys, then point lookups with
	// a block cache large enough to hold it.
	topts := sstable.Options{BlockSize: opts.BlockSize, BloomBitsPerKey: bits, Compression: opts.Compression}
	tableRound := 0
	var valueKB float64
	for _, v := range in.values {
		valueKB += float64(len(v)) / 1024
	}
	build := func() (string, error) {
		tableRound++
		name := fmt.Sprintf("probe-%d.ldb", tableRound)
		f, err := fs.Create(tl, name)
		if err != nil {
			return "", err
		}
		b := sstable.NewBuilder(f, topts)
		for j := range in.ikeys {
			if err := b.Add(tl, in.ikeys[j], in.values[j]); err != nil {
				return "", err
			}
		}
		if err := b.Finish(tl); err != nil {
			return "", err
		}
		return name, f.Close(tl)
	}
	var buildErr error
	out["sstable.build_ns_per_kb"] = timeLoopOnce(func() {
		if _, err := build(); err != nil {
			buildErr = err
		}
	}) / valueKB
	if buildErr != nil {
		return nil, fmt.Errorf("probe sstable build: %w", buildErr)
	}
	name, err := build()
	if err != nil {
		return nil, fmt.Errorf("probe sstable build: %w", err)
	}
	tf, err := fs.Open(tl, name)
	if err != nil {
		return nil, err
	}
	blocks := cache.New(64 << 20)
	rd, err := sstable.Open(tl, tf, topts, 1, blocks)
	if err != nil {
		return nil, fmt.Errorf("probe sstable open: %w", err)
	}
	seeks := make([][]byte, n)
	for i, k := range in.ukeys {
		seeks[i] = keys.MakeInternalKey(nil, k, keys.MaxSeqNum, keys.KindSeek)
	}
	out["sstable.get_ns"] = timeLoop(nil, func(i int) {
		if _, _, found, _ := rd.Get(tl, seeks[i%n]); found {
			probeSink++
		}
	})

	// iterator: a scan of that table, and a 4-way merge of memtables.
	sit := rd.NewIterator(tl)
	sit.First()
	out["iterator.scan_next_ns"] = timeLoop(nil, func(int) {
		if sit.Next(); !sit.Valid() {
			sit.First()
		}
	})
	var children []iterator.Iterator
	for c := 0; c < 4; c++ {
		m := memtable.New(int64(c + 1))
		for i := c; i < n; i += 4 {
			m.Add(keys.SeqNum(i+1), keys.KindValue, in.ukeys[i], in.values[i])
		}
		children = append(children, memIter{m.NewIterator()})
	}
	merge := iterator.NewMerging(children...)
	merge.First()
	out["iterator.merge_next_ns"] = timeLoop(nil, func(int) {
		if merge.Next(); !merge.Valid() {
			merge.First()
		}
	})

	// cache: hits on resident entries, and inserts that evict.
	lru := cache.New(int64(n) * 4096)
	for i := 0; i < n; i++ {
		lru.Put(cache.Key{ID: 1, Off: uint64(i)}, blockData, 4096)
	}
	out["cache.get_ns"] = timeLoop(nil, func(i int) {
		if _, ok := lru.Get(cache.Key{ID: 1, Off: uint64(i % n)}); ok {
			probeSink++
		}
	})
	out["cache.insert_ns"] = timeLoop(nil, func(i int) {
		lru.Put(cache.Key{ID: 2, Off: uint64(i)}, blockData, 4096)
	})

	// wire: one PUT frame out, and back in.
	var frame []byte
	out["wire.encode_ns"] = timeLoop(nil, func(i int) {
		frame = wire.AppendPut(frame[:0], uint64(i), in.ukeys[i%n], in.values[i%n])
	})
	frames := bytes.NewReader(nil)
	reader := bufio.NewReaderSize(frames, 1<<16)
	var body []byte
	out["wire.decode_ns"] = timeLoop(nil, func(int) {
		frames.Reset(frame)
		reader.Reset(frames)
		f, b, err := wire.ReadFrame(reader, body)
		if err != nil {
			panic(err) // the frame was encoded one line above
		}
		body = b
		if req, err := wire.ParseRequest(f); err == nil {
			probeSink += len(req.Value)
		}
	})
	return out, nil
}

// memIter completes a memtable iterator into an iterator.Iterator, as
// the engine's own adapter does: a memtable cannot fail.
type memIter struct{ *memtable.Iterator }

func (memIter) Err() error { return nil }

// timeLoopOnce times calls that are long enough to time singly: the
// fastest of probeRounds calls, in ns.
func timeLoopOnce(fn func()) float64 {
	best := 0.0
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		fn()
		if el := float64(time.Since(start)); best == 0 || el < best {
			best = el
		}
	}
	return best
}
