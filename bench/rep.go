package main

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
)

// repConfig selects what one rep runs beyond the workload itself.
type repConfig struct {
	seed     int64
	variant  policy.Variant
	tr       *tracer // traced rep
	governor bool    // reference pass: admission governor on
	// closedOnly skips the open-loop phases and the end checks
	// (reference passes and the cross-check need neither).
	closedOnly bool
}

// repResult is what one rep measured. exact and counters are functions
// of the seed alone on an inline workload and must repeat bit for bit;
// the host fields are the machine's.
type repResult struct {
	exact map[string]float64
	// before and after are the registry at the start of the measured
	// region and after the quiesce that ends it: the determinism gate
	// compares after, the per-layer ledger reports after − before.
	before, after obs.Snapshot

	setupS, wallS, cpuS float64
	// setupLaps and wallLaps split setupS and wallS into the driver's
	// laps; on fill_async, where the background goroutines decide what
	// work falls into which lap, wallLaps is the region as one lap.
	setupLaps, wallLaps []float64
	measuredOps         int64
	allocBytes, allocs  uint64
	gcCPUS              float64
	calibBeforeMs       float64
	calibAfterMs        float64
	attempted, failed   int64
	firstFailure        string
	// p9999Samples is the sample count behind virt_p9999_us, and
	// p9999Beyond how many samples lie beyond it.
	p9999Samples, p9999Beyond int
	open                      [3]openResult
	lostOnCrash               int64
	recoveryVirtMs            float64
	recoveryHostMs            float64
	closedVirtUsPerOp         float64
	// closedSyncs and closedBytesSynced are Table 1's counters over the
	// closed-loop phase; virtSpanNs is the virtual length of the measured
	// region up to the end of the quiesce, which is what the registry
	// deltas cover.
	closedSyncs, closedBytesSynced int64
	virtSpanNs                     int64
}

type openResult struct {
	kops, p50Us, p99Us float64
	maxLagUs, endLagUs float64
	sustained          bool
}

// verifySample is how many keys a rep reads back and checks after a
// phase that issued no Gets of its own.
const verifySample = 2000

// runRep builds a store, prepares it, and runs the workload's measured
// region once.
func runRep(w *workload, cfg repConfig) (*repResult, error) {
	res := &repResult{exact: map[string]float64{}}
	// Set-up is everything before the measured region, the calibration
	// kernel included: a constant amount of work that keeps setup_s
	// from being a few hundred microseconds of noise on the fills.
	d := &driver{w: w, hashes: maphash.MakeSeed()}
	d.startLaps()
	res.calibBeforeMs = ms(calibrate(w.quick))
	d.lap()

	base := w.options()
	base.GovernorEnabled = cfg.governor
	s, err := newStack(cfg.variant, base, cfg.tr)
	if err != nil {
		return nil, err
	}
	d.s, d.rounds, d.expect = s, make([]uint32, w.records), make([]uint64, w.records)
	d.lap()
	if err := prepare(w, d, cfg.seed, res, cfg.tr); err != nil {
		return nil, err
	}
	res.setupLaps = d.endLaps()
	res.setupS = sum(res.setupLaps)

	d.tr = cfg.tr
	if cfg.tr != nil {
		cfg.tr.reset(s)
	}
	res.before = s.reg.Snapshot()
	before := sampleHost()
	d.startLaps()
	loadSeed := cfg.seed + seedMeasured
	if w.preload == 0 {
		loadSeed = cfg.seed // a fill is its own load
	}
	virtStart, fsBefore := s.tl.Now(), s.fs.Stats()
	closed := d.closed(loadSeed, w.ops)
	fsAfter := s.fs.Stats()
	res.closedSyncs, res.closedBytesSynced = fsAfter.Syncs-fsBefore.Syncs, fsAfter.BytesSynced-fsBefore.BytesSynced
	var opens [3]phase
	if !cfg.closedOnly {
		for i, rate := range w.openRates {
			// Each rate starts from a store with no background debt, so
			// the phases do not inherit each other's backlog.
			s.db.WaitBackground(s.tl)
			opens[i] = d.open(cfg.seed+seedOpen+int64(i), w.openOps, rate)
		}
	}
	if w.async {
		// The goroutine executor's debt is host work the Puts caused:
		// draining it belongs to the measured region.
		if err := s.db.Close(s.tl); err != nil {
			return nil, fmt.Errorf("drain background work: %w", err)
		}
	}
	res.wallLaps = d.endLaps()
	if w.async {
		res.wallLaps = []float64{sum(res.wallLaps)}
	}
	after := sampleHost()
	d.tr = nil
	if cfg.tr != nil {
		cfg.tr.stop()
	}
	res.measuredOps = d.attempted
	res.wallS = sum(res.wallLaps)
	res.cpuS = float64(after.cpuNs-before.cpuNs) / 1e9
	res.allocBytes = after.allocB - before.allocB
	res.allocs = after.mallocs - before.mallocs
	res.gcCPUS = after.gcCPUSec - before.gcCPUSec

	summarizeClosed(res, w, closed)
	for i := range opens {
		res.open[i] = summarizeOpen(w, opens[i], w.openRates[i])
	}
	if !cfg.closedOnly {
		mid := res.open[1]
		res.exact["open_p50_us"] = mid.p50Us
		res.exact["open_p99_us"] = mid.p99Us
		res.exact["open_sustained_kops"] = sustained(res.open)
	}

	if w.async {
		s.fs.ForceCommit(s.tl) // Close left no background work to wait for
	} else {
		s.quiesce()
	}
	res.virtSpanNs = int64(s.tl.Now().Sub(virtStart))
	res.after = s.reg.Snapshot()
	c := res.after.Counters
	if u := c["engine.user_bytes_written"]; u > 0 {
		res.exact["write_amp"] = float64(c["ssd.bytes_written"]) / float64(u)
	}
	if live := d.liveUserBytes(); live > 0 {
		res.exact["space_amp"] = float64(s.fsBytes()) / float64(live)
	}

	if w.async {
		// Reopened only now, for the checks: what recovery writes is not
		// the workload's.
		if s.db, err = engine.Open(s.tl, s.mount, s.opts); err != nil {
			return nil, fmt.Errorf("reopen after drain: %w", err)
		}
	}
	if !cfg.closedOnly {
		if w.measured == opPut && !w.mixed {
			d.verify(cfg.seed)
		}
		if w.durability {
			if err := crashTail(d, res, cfg.seed); err != nil {
				return nil, err
			}
		}
	}
	res.attempted, res.failed, res.firstFailure = d.attempted, d.failed, d.firstFailure
	// Collect the rep's garbage — the store — first: it would otherwise
	// sit in memory through the next rep, and a concurrent collection of
	// a heap this size would slow the kernel down and look like a noisy
	// host.
	d, s = nil, nil
	runtime.GC()
	res.calibAfterMs = ms(calibrate(w.quick))
	return res, nil
}

// prepare brings a fresh store to the state the measured region starts
// from: loaded, background work finished, and cold or warm as the
// workload asks.
func prepare(w *workload, d *driver, seed int64, res *repResult, tr *tracer) error {
	s := d.s
	c := &client{tl: s.tl}
	if w.mixed {
		// YCSB loads every record once, in record order.
		for k := int64(0); k < w.preload; k++ {
			d.do(c, op{opPut, k})
		}
	} else if w.preload > 0 {
		u := &uniform{rnd: rand.New(rand.NewSource(seed)), kind: opPut, span: w.records}
		for i := int64(0); i < w.preload; i++ {
			d.do(c, u.next())
		}
	}
	if w.preload > 0 {
		s.db.WaitBackground(s.tl)
		d.lap()
	}
	if w.cold {
		// Everything durable, then a power cut: the reopened store
		// serves the same data from an empty page cache.
		s.fs.ForceCommit(s.tl)
		hostStart, cutAt := time.Now(), s.tl.Now()
		if err := s.crashReopen(); err != nil {
			return err
		}
		res.recoveryHostMs = ms(time.Since(hostStart))
		res.recoveryVirtMs = float64(s.tl.Now().Sub(cutAt)) / float64(vclock.Millisecond)
		if tr != nil {
			tr.resync(s) // the power cut rolled the namespace back
		}
		d.lap()
	}
	if w.hotSpan > 0 {
		lo := (w.records - w.hotSpan) / 2
		for k := lo; k < lo+w.hotSpan; k++ {
			d.do(c, op{opGet, k})
		}
	}
	if d.failed > 0 {
		return fmt.Errorf("set-up failed: %s", d.firstFailure)
	}
	d.attempted = 0
	return nil
}

// summarizeClosed derives the closed-loop virtual-time metrics.
func summarizeClosed(res *repResult, w *workload, p phase) {
	perClient := w.ops / int64(w.clients)
	res.closedVirtUsPerOp = p.elapsed.Microseconds() / float64(perClient)
	res.exact["virt_us_per_op"] = res.closedVirtUsPerOp
	sorted := sortedCopy(p.lat)
	res.exact["virt_p50_us"] = us(percentile(sorted, 0.50))
	res.exact["virt_p9999_us"] = us(percentile(sorted, 0.9999))
	res.exact["virt_max_us"] = us(sorted[len(sorted)-1])
	res.p9999Samples = len(sorted)
	res.p9999Beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool {
		return sorted[i] > percentile(sorted, 0.9999)
	})
}

// summarizeOpen derives one open-loop phase's numbers. A rate counts
// as sustained when its p99 meets the workload's limit and the
// generator is not falling further behind: the median lateness of the
// last tenth of the phase is within the limit too.
func summarizeOpen(w *workload, p phase, kops float64) openResult {
	if len(p.lat) == 0 {
		return openResult{kops: kops}
	}
	sorted := sortedCopy(p.lat)
	r := openResult{
		kops:  kops,
		p50Us: us(percentile(sorted, 0.50)),
		p99Us: us(percentile(sorted, 0.99)),
	}
	lag := sortedCopy(p.lag)
	r.maxLagUs = us(lag[len(lag)-1])
	tail := sortedCopy(p.lag[len(p.lag)-len(p.lag)/10-1:])
	r.endLagUs = us(percentile(tail, 0.50))
	r.sustained = r.p99Us <= w.openLimitUs && r.endLagUs <= w.openLimitUs
	return r
}

// sustained is the highest of the fixed rates that was sustained.
func sustained(open [3]openResult) float64 {
	best := 0.0
	for _, o := range open {
		if o.sustained && o.kops > best {
			best = o.kops
		}
	}
	return best
}

// liveUserBytes is the size of the data a reader can get back: one
// key and one value per key ever written.
func (d *driver) liveUserBytes() int64 {
	var n int64
	keyLen := int64(len(d.w.key(0)))
	for _, r := range d.rounds {
		if r > 0 {
			n += keyLen + valueSize
		}
	}
	return n
}

// verify reads a seeded sample of keys back and checks each against
// the model, for workloads whose measured stream issues no Gets.
func (d *driver) verify(seed int64) {
	c := &client{tl: d.s.tl}
	rnd := rand.New(rand.NewSource(seed + seedTail))
	n := int64(verifySample)
	if n > d.w.records {
		n = d.w.records
	}
	for i := int64(0); i < n; i++ {
		d.do(c, op{opGet, rnd.Int63n(d.w.records)})
	}
}

// Durability limits of the model, in journal commit intervals. The WAL
// is never fsynced; an appended record becomes durable at the first
// asynchronous commit after the flusher has written it back, which is
// at most two intervals after the append. crashLossIntervals allows
// one more, and the tail of Puts spans crashTailIntervals so the cut
// falls well inside it.
const (
	crashLossIntervals = 3
	crashTailIntervals = 5
)

// crashTail is fill's durability check (§5.2: KV pairs in SSTables are
// never lost, only the unsynced WAL tail may be). It issues a tail of
// Puts, cuts power without forcing anything, reopens, and requires the
// lost Puts to be a suffix of issue order that is no older than
// crashLossIntervals commit intervals plus one write buffer. Every
// violation is a failed operation.
func crashTail(d *driver, res *repResult, seed int64) error {
	s, w := d.s, d.w
	interval := s.opts.PollInterval // the journal's commit interval follows it
	bufferOps := s.opts.WriteBufferSize/(int64(len(w.key(0)))+valueSize) + 1
	var (
		tailKeys  []int64
		tailRound []uint32
		tailAt    []vclock.Time
	)
	c := &client{tl: s.tl}
	u := &uniform{rnd: rand.New(rand.NewSource(seed + seedTail + 1)), kind: opPut, span: w.records}
	for end := s.tl.Now().Add(crashTailIntervals * interval); s.tl.Now() < end || int64(len(tailKeys)) < 2*bufferOps; {
		o := u.next()
		tailKeys, tailRound, tailAt = append(tailKeys, o.key), append(tailRound, d.rounds[o.key]), append(tailAt, s.tl.Now())
		d.do(c, o)
	}
	n := int64(len(tailKeys))
	cutAt := s.tl.Now()

	hostStart := time.Now()
	if err := s.crashReopen(); err != nil {
		return err
	}
	res.recoveryHostMs = ms(time.Since(hostStart))
	res.recoveryVirtMs = float64(s.tl.Now().Sub(cutAt)) / float64(vclock.Millisecond)

	// survived[k] is the round of key k the reopened store returns.
	survived := map[int64]uint32{}
	for _, k := range tailKeys {
		if _, seen := survived[k]; seen {
			continue
		}
		d.attempted++
		got, err := s.db.Get(s.tl, w.key(k))
		if errors.Is(err, engine.ErrNotFound) {
			survived[k] = 0 // every write of the key was in the lost tail
			continue
		}
		if err != nil {
			d.fail("after crash: get: " + err.Error())
			survived[k] = 0
			continue
		}
		r, ok := d.roundOf(k, got)
		if !ok {
			d.fail("after crash: a key holds bytes that were never written to it")
		}
		survived[k] = r
	}
	// Tail Put i wrote round tailRound[i]+1 of its key; it is lost when
	// the key came back at an earlier round.
	firstLost, lastKept := n, int64(-1)
	for i := int64(0); i < n; i++ {
		if survived[tailKeys[i]] < tailRound[i]+1 {
			if i < firstLost {
				firstLost = i
			}
		} else {
			lastKept = i
		}
	}
	res.lostOnCrash = n - firstLost
	if lastKept > firstLost {
		d.fail("after crash: a lost write is followed by one that survived")
	}
	if firstLost < n {
		oldest := firstLost + bufferOps // one write buffer of slack
		if oldest < n && cutAt.Sub(tailAt[oldest]) > crashLossIntervals*interval {
			d.fail(fmt.Sprintf("after crash: %d writes lost, reaching back more than %d commit intervals and a write buffer",
				res.lostOnCrash, crashLossIntervals))
		}
	}
	// Keys the tail did not touch were in SSTables or an older WAL:
	// none of them may have moved.
	for k, r := range survived {
		d.rounds[k], d.expect[k] = r, 0
	}
	d.verify(seed + 1)
	return nil
}

// roundOf finds which round of key k the bytes got are, counting
// rounds from 1 (0: no bytes). Only rounds up to the latest issued can
// match.
func (d *driver) roundOf(k int64, got []byte) (uint32, bool) {
	for r := d.rounds[k]; r > 0; r-- {
		d.want = d.w.value(d.want, k, r-1)
		if string(got) == string(d.want) {
			return r, true
		}
	}
	return 0, false
}

func sum(v []float64) (total float64) {
	for _, x := range v {
		total += x
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
