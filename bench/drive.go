package main

import (
	"errors"
	"hash/maphash"
	"math"
	"math/rand"
	"sort"
	"time"

	"noblsm/internal/engine"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// client is one simulated caller: a virtual timeline and a stream.
type client struct {
	tl  *vclock.Timeline
	st  stream
	buf []byte
}

// driver issues operations against one stack and keeps the model the
// outputs are checked against: rounds[k] counts the Puts issued for
// key k, so the value a Get must return is the (rounds[k]-1)-th.
// expect[k] caches a 64-bit hash of that value once a Get has needed
// it, until the next Put of k: regenerating 1 KB for every Get would
// make a read workload's host time mostly the checker's
// (host.gen_share), and caching the values themselves would add their
// megabytes to the working set being measured.
type driver struct {
	w      *workload
	s      *stack
	tr     *tracer // nil unless traced
	rounds []uint32
	expect []uint64 // 0: not cached
	hashes maphash.Seed
	want   []byte // scratch for the value a key should hold
	batch  engine.Batch

	// laps are host instants, one at each stage boundary of a rep and
	// one every lapOps operations in between. The reps of one seed issue
	// the same operations in the same order, so lap i covers the same
	// work in every rep, and the run can take each lap from the rep the
	// host disturbed least (fastestLaps).
	laps     []time.Time
	untilLap int64

	attempted, failed int64
	firstFailure      string
}

// lapOps is short enough that a burst of interference lasting a second
// spoils a few laps of one rep and not the rep, and long enough that
// reading the clock costs nothing (2 000 operations take 4 ms on
// read_hot and 80 ms on mixed).
const lapOps = 2000

func (d *driver) lap() {
	d.laps = append(d.laps, time.Now())
	d.untilLap = lapOps
}

func (d *driver) startLaps() {
	d.laps = d.laps[:0]
	d.lap()
}

// endLaps closes the lap under way and returns the lengths, in
// seconds, of the laps since startLaps.
func (d *driver) endLaps() []float64 {
	d.lap()
	out := make([]float64, len(d.laps)-1)
	for i := range out {
		out[i] = d.laps[i+1].Sub(d.laps[i]).Seconds()
	}
	return out
}

func (d *driver) fail(msg string) {
	d.failed++
	if d.firstFailure == "" {
		d.firstFailure = msg
	}
}

// do issues one operation on c's timeline and checks its outcome.
func (d *driver) do(c *client, o op) {
	d.attempted++
	if d.untilLap--; d.untilLap == 0 {
		d.lap()
	}
	key := d.w.key(o.key)
	if o.kind == opPut {
		c.buf = d.w.value(c.buf, o.key, d.rounds[o.key])
		var err error
		if d.tr != nil {
			var sp obs.OpSpan
			d.batch.Clear()
			d.batch.Put(key, c.buf)
			d.tr.begin(opPut, c.tl)
			sp, err = d.s.db.WriteObserved(c.tl, &d.batch)
			d.tr.end(c.tl, &sp)
		} else {
			err = d.s.db.Put(c.tl, key, c.buf)
		}
		if err != nil {
			d.fail("put: " + err.Error())
			return
		}
		d.rounds[o.key]++
		d.expect[o.key] = 0
		return
	}
	var (
		got []byte
		err error
	)
	if d.tr != nil {
		var sp obs.OpSpan
		d.tr.begin(opGet, c.tl)
		got, sp, err = d.s.db.GetObserved(c.tl, key)
		d.tr.end(c.tl, &sp)
	} else {
		got, err = d.s.db.Get(c.tl, key)
	}
	d.check(o.key, got, err)
}

// check compares a Get's outcome with the model.
func (d *driver) check(k int64, got []byte, err error) {
	r := d.rounds[k]
	switch {
	case r == 0 && errors.Is(err, engine.ErrNotFound):
	case r == 0:
		d.fail("get of a key never written did not report ErrNotFound")
	case err != nil:
		d.fail("get: " + err.Error())
	default:
		if d.expect[k] == 0 {
			d.want = d.w.value(d.want, k, r-1)
			d.expect[k] = maphash.Bytes(d.hashes, d.want) | 1
		}
		if maphash.Bytes(d.hashes, got)|1 != d.expect[k] {
			d.fail("get returned bytes other than the key's latest value")
		}
	}
}

// phase is the record of one driven phase.
type phase struct {
	// lat is each operation's virtual latency in ns, in issue order:
	// from issue in a closed loop, from the due instant in an open one.
	lat     []int64
	elapsed vclock.Duration
	// lag is, per operation of an open loop, how long after its due
	// instant the generator could issue it.
	lag []int64
}

// newClients starts n clients at the store's current instant.
func (d *driver) newClients(seed int64, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{tl: vclock.NewTimeline(d.s.tl.Now()), st: d.w.stream(seed, i)}
	}
	return cs
}

// finish moves the store's clock to the end of the phase.
func (d *driver) finish(cs []*client, start vclock.Time) vclock.Duration {
	end := start
	for _, c := range cs {
		end = vclock.Max(end, c.tl.Now())
	}
	d.s.tl.WaitUntil(end)
	return end.Sub(start)
}

// closed drives total operations in a closed loop: each client issues
// its next operation when its previous one completes, and the client
// with the smallest clock goes first, which is how concurrent load
// interleaves deterministically on one goroutine (harness.drive's
// rule, including how the remainder of total/clients is dealt).
func (d *driver) closed(seed int64, total int64) phase {
	cs := d.newClients(seed, d.w.clients)
	start := d.s.tl.Now()
	quota := make([]int64, len(cs))
	for i := range quota {
		quota[i] = total / int64(len(cs))
	}
	quota[0] += total - quota[0]*int64(len(cs))
	p := phase{lat: make([]int64, 0, total)}
	for n := int64(0); n < total; n++ {
		sel := -1
		for i, c := range cs {
			if quota[i] > 0 && (sel < 0 || c.tl.Now() < cs[sel].tl.Now()) {
				sel = i
			}
		}
		c := cs[sel]
		quota[sel]--
		at := c.tl.Now()
		d.do(c, c.st.next())
		p.lat = append(p.lat, int64(c.tl.Now().Sub(at)))
	}
	p.elapsed = d.finish(cs, start)
	return p
}

// open drives total operations in an open loop at a fixed mean arrival
// rate (10³ ops per virtual second). Arrivals are a Poisson process
// drawn from the seed — independent users, not a metronome — so each
// operation is due at its arrival instant whether or not earlier ones
// have completed, goes to the client that frees up first, and is timed
// from its due instant: a stall is charged to every request that
// arrived during it.
func (d *driver) open(seed int64, total int64, kops float64) phase {
	cs := d.newClients(seed, d.w.clients)
	start := d.s.tl.Now()
	arrivals := rand.New(rand.NewSource(seed + seedArrivals))
	meanGap := float64(vclock.Second) / (kops * 1000)
	p := phase{lat: make([]int64, 0, total), lag: make([]int64, 0, total)}
	due := start
	for n := int64(0); n < total; n++ {
		due = due.Add(vclock.Duration(arrivals.ExpFloat64() * meanGap))
		sel := 0
		for i, c := range cs {
			if c.tl.Now() < cs[sel].tl.Now() {
				sel = i
			}
		}
		c := cs[sel]
		late := c.tl.Now().Sub(due)
		if late < 0 {
			late = 0
			c.tl.WaitUntil(due)
		}
		d.do(c, c.st.next())
		p.lag = append(p.lag, int64(late))
		p.lat = append(p.lat, int64(c.tl.Now().Sub(due)))
	}
	p.elapsed = d.finish(cs, start)
	return p
}

// percentile returns the smallest sample with at least share p of the
// samples at or below it (nearest rank, exact: no buckets).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
