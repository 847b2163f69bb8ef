package harness

// The one harness behind every recovery check of this package. The
// paper's contract has two parts: SSTable contents are never lost, and
// only the unsynced WAL tail may be. Six drivers check it — the
// crash-boundary explorer, the fault schedules, the backup sweep, the
// two crash-cut tests and the §5.2 consistency test — and each is a
// configuration of the pieces here: which mount the stack builder
// splices in, when the fault plane is armed, where the power is cut,
// which horizon, which probes follow the check.
//
// The horizon is an ack instant: every key acked at or before it must
// come back at no older a round than its newest write acked by then.
// A power cut at instant t — a materialized commit boundary or a crash
// of the live filesystem — has one: t − 3×CommitInterval (horizon).
// exact is the horizon past every ack: the store must equal the model.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"noblsm/internal/dbbench"
	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// Mounts newStack can splice between the engine and ext4.
const (
	mountPlain = iota
	mountCrash // vfs.CrashFS: records every journal-commit boundary
	mountFault // vfs.FaultFS seeded by the run's seed, left disarmed
)

// newStack is the one stack builder: the variant's policy over base,
// a scaled SSD, ext4 committing every commit interval, the mount, then
// engine.Open. Every layer publishes into sink's registry (a fresh one
// when it has none). image, when non-nil, is a post-crash directory
// laid down and force-committed before the engine opens it: the
// simulated machine rebooted, and only recovery is under test.
func newStack(tl *vclock.Timeline, v policy.Variant, base engine.Options, commit vclock.Duration,
	sink obs.Sink, mount int, seed int64, image map[string][]byte) (*Store, error) {
	opts, err := policy.Options(v, base)
	if err != nil {
		return nil, err
	}
	reg := sink.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	opts.Metrics, opts.Events, opts.Telemetry = reg, sink.Trace, sink.Telemetry
	dev := ssd.NewObserved(ScaledDevice(base), reg)
	fsCfg := ext4.DefaultConfig()
	if commit > 0 {
		fsCfg.CommitInterval = commit
	}
	fs := ext4.NewObserved(fsCfg, dev, reg, sink.Trace)
	st := &Store{Variant: v, Device: dev, FS: fs, Opts: opts, Metrics: reg,
		Trace: sink.Trace, Telemetry: sink.Telemetry, mount: fs}
	switch mount {
	case mountCrash:
		st.mount, st.crash = vfs.NewCrashFS(fs)
	case mountFault:
		st.mount, st.Faults = vfs.NewFaultFS(fs, seed)
		st.Faults.SetEnabled(false)
	}
	if image != nil {
		names := make([]string, 0, len(image))
		for name := range image {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := fs.WriteFile(tl, name, image[name]); err != nil {
				return nil, fmt.Errorf("materializing %q: %w", name, err)
			}
		}
		fs.ForceCommit(tl)
	}
	if st.DB, err = engine.Open(tl, st.mount, opts); err != nil {
		return nil, err
	}
	return st, nil
}

// roundValue renders the self-describing value of round on key k,
// padded with 'x' to size: "key-00123#42xxxx…".
func roundValue(k string, round int64, size int) []byte {
	v := []byte(k + "#" + strconv.FormatInt(round, 10))
	for len(v) < size {
		v = append(v, 'x')
	}
	return v
}

// parseRound recovers the round from a value read back for key k; ok
// is false for any value roundValue cannot have written for k.
func parseRound(k string, v []byte, size int) (round int64, ok bool) {
	rest, found := strings.CutPrefix(string(v), k+"#")
	if !found {
		return 0, false
	}
	round, err := strconv.ParseInt(strings.TrimRight(rest, "x"), 10, 64)
	return round, err == nil && string(roundValue(k, round, size)) == string(v)
}

// The atomic-batch probe: sibling groups written only through
// multi-key Batches, so every check can assert a batch survived whole.
const (
	batchGroups   = 8
	batchSiblings = 4
)

func batchKey(group int64, sibling int) string {
	return fmt.Sprintf("bat-%03d-k%d", group, sibling)
}

// ackedWrite is one acknowledged write: round is the op index that
// wrote it, at the instant it returned on the client timeline.
type ackedWrite struct {
	round int64
	at    vclock.Time
}

// workload is one seeded op stream and the acked-write model it feeds.
// Op i puts round i of one key; a write that returns an error never
// enters the model.
type workload struct {
	valueSize int
	keyspace  int                // > 0: op i puts key-(i mod keyspace)
	gen       *dbbench.Generator // otherwise: db_bench fillrandom keys
	batches   bool               // op i ≡ 15 (mod 16) also writes one sibling group atomically
	readBack  *rand.Rand         // non-nil: an acked op i ≡ 3 (mod 7) reads back a random acked key
	lossy     bool               // writes run under an armed fault plane: a failed one is skipped

	next  int64
	acked map[string][]ackedWrite // per key, every acked round in order
	order []string                // keys in first-ack order
}

// horizon is the durability horizon of a power cut at instant at: an
// acked write is crash-proof at most one flusher ageing (≤ one commit
// interval) plus one commit cadence after its ack, and one more
// interval is slack for boundary alignment. The WAL is never fsynced,
// so this is the strongest guarantee the paper's configuration offers.
func horizon(at vclock.Time, commit vclock.Duration) vclock.Time {
	return at.Add(-3 * commit)
}

// exact is the horizon past every ack.
const exact = vclock.Time(math.MaxInt64)

// run issues the stream's next n ops against db.
func (w *workload) run(tl *vclock.Timeline, db *engine.DB, n int64) error {
	for end := w.next + n; w.next < end; w.next++ {
		i := w.next
		var k string
		if w.keyspace > 0 {
			k = fmt.Sprintf("key-%05d", i%int64(w.keyspace))
		} else {
			key, _ := w.gen.Next()
			k = string(dbbench.Key(key))
		}
		ok, err := w.write(tl, db, i, k)
		if err != nil {
			return err
		}
		if ok && w.readBack != nil && i%7 == 3 {
			rk := w.order[w.readBack.Intn(len(w.order))]
			newest := w.acked[rk][len(w.acked[rk])-1].round
			if got, err := db.Get(tl, []byte(rk)); err != nil || string(got) != string(roundValue(rk, newest, w.valueSize)) {
				return fmt.Errorf("mid-run Get(%s) = %q, %v; want round %d", rk, got, err, newest)
			}
		}
		if w.batches && i%16 == 15 {
			group := make([]string, batchSiblings)
			for s := range group {
				group[s] = batchKey((i/16)%batchGroups, s)
			}
			if _, err := w.write(tl, db, i, group...); err != nil {
				return err
			}
		}
	}
	return nil
}

// write puts round i of ks in one atomic Batch (what Put does with one
// key) and records the acks.
func (w *workload) write(tl *vclock.Timeline, db *engine.DB, i int64, ks ...string) (bool, error) {
	var b engine.Batch
	for _, k := range ks {
		b.Put([]byte(k), roundValue(k, i, w.valueSize))
	}
	if err := db.Write(tl, &b); err != nil {
		if w.lossy {
			return false, nil
		}
		return false, fmt.Errorf("op %d: %w", i, err)
	}
	if w.acked == nil {
		w.acked = make(map[string][]ackedWrite)
	}
	for _, k := range ks {
		if len(w.acked[k]) == 0 {
			w.order = append(w.order, k)
		}
		w.acked[k] = append(w.acked[k], ackedWrite{round: i, at: tl.Now()})
	}
	return true, nil
}

// powerCut cuts power to st's medium now, reopens the store through
// recovery and checks it at horizon h, closing it on every path. It
// returns what the check read and the log records recovery dropped.
func (w *workload) powerCut(tl *vclock.Timeline, st *Store, h vclock.Time) (image map[string]string, walDrops int, err error) {
	st.FS.Crash(tl.Now())
	db, err := engine.Open(tl, st.mount, st.Opts)
	if err != nil {
		return nil, 0, fmt.Errorf("recovery: %w", err)
	}
	defer func() {
		if cerr := db.Close(tl); err == nil {
			err = cerr
		}
	}()
	image, _, err = w.check(tl, db, h, nil)
	return image, db.WALDropsAtRecovery(), err
}

// check asserts the contract on db at horizon h. Every acked key is
// read with Get, in first-ack order: a value must be one the model
// acked for that key, and a key acked at or before h must be present
// at no older round than its newest write acked by then. Sibling
// groups must come back through MultiGet all missing or all at one
// round, agreeing with the Gets. Then quiesce runs, when non-nil, and
// one full scan must equal what the Gets returned. check returns that
// image and the number of guarantees it checked.
func (w *workload) check(tl *vclock.Timeline, db *engine.DB, h vclock.Time, quiesce func() error) (map[string]string, int64, error) {
	image := make(map[string]string, len(w.order))
	var checks int64
	for _, k := range w.order {
		ws := w.acked[k]
		round := int64(-1)
		v, err := db.Get(tl, []byte(k))
		switch {
		case err == nil:
			r, ok := parseRound(k, v, w.valueSize)
			i := sort.Search(len(ws), func(i int) bool { return ws[i].round >= r })
			if !ok || i == len(ws) || ws[i].round != r {
				return nil, 0, fmt.Errorf("key %q came back as %q, a value never acked", k, v)
			}
			round = r
			image[k] = string(v)
		case !errors.Is(err, engine.ErrNotFound):
			return nil, 0, fmt.Errorf("Get(%q): %w", k, err)
		}
		g := sort.Search(len(ws), func(i int) bool { return ws[i].at > h })
		if g == 0 {
			continue // nothing old enough to be guaranteed yet
		}
		checks++
		if want := ws[g-1]; round < 0 {
			return nil, 0, fmt.Errorf("acked write lost: key %q round %d acked at %v (horizon %v) is missing",
				k, want.round, want.at, h)
		} else if round < want.round {
			return nil, 0, fmt.Errorf("stale: key %q came back at round %d, but round %d was acked at %v (horizon %v)",
				k, round, want.round, want.at, h)
		}
	}
	for g := int64(0); w.batches && g < batchGroups; g++ {
		group := make([][]byte, batchSiblings)
		for s := range group {
			group[s] = []byte(batchKey(g, s))
		}
		vals, errs := db.MultiGet(tl, group)
		var rounds []int64
		for s, k := range group {
			got, ok := image[string(k)]
			if errs[s] != nil && !errors.Is(errs[s], engine.ErrNotFound) || ok != (errs[s] == nil) || got != string(vals[s]) {
				return nil, 0, fmt.Errorf("batch group %d: MultiGet(%q) = %q, %v disagrees with Get", g, k, vals[s], errs[s])
			}
			if ok {
				r, _ := parseRound(string(k), vals[s], w.valueSize)
				rounds = append(rounds, r)
			}
		}
		if len(rounds) != 0 && (len(rounds) != batchSiblings || slices.Min(rounds) != slices.Max(rounds)) {
			return nil, 0, fmt.Errorf("torn batch: group %d came back at rounds %v", g, rounds)
		}
		checks++
	}
	if quiesce != nil {
		if err := quiesce(); err != nil {
			return nil, 0, err
		}
	}
	if err := compareContents(tl, db, image, "scan"); err != nil {
		return nil, 0, err
	}
	return image, checks, nil
}

// compareContents asserts a store's full scan equals want exactly.
func compareContents(tl *vclock.Timeline, db *engine.DB, want map[string]string, label string) error {
	it, err := db.NewIterator(tl)
	if err != nil {
		return err
	}
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		k := string(it.Key())
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("%s: extra key %q", label, k)
		}
		if w != string(it.Value()) {
			return fmt.Errorf("%s: key %q diverged", label, k)
		}
		n++
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("%s: scan: %w", label, err)
	}
	if n != len(want) {
		return fmt.Errorf("%s: %d keys, want %d", label, n, len(want))
	}
	return nil
}

// probeBackup backs up db, a quiescent store on st, into a fresh
// directory and restores the backup beside it: a backup taken at this
// point must not silently lose anything want holds.
func probeBackup(tl *vclock.Timeline, st *Store, want map[string]string) error {
	if _, err := st.DB.Backup(tl, "probe-ckpt"); err != nil {
		return fmt.Errorf("backup: %w", err)
	}
	return probeRestore(tl, st, "probe-ckpt", "probe-rst", want)
}

// probeRestore restores the backup in src to dst through the repair
// path: nothing may be quarantined, and the restored store must equal
// want.
func probeRestore(tl *vclock.Timeline, st *Store, src, dst string, want map[string]string) error {
	rep, err := engine.RestoreBackup(tl, st.mount, src, dst, st.Opts)
	if err != nil {
		return fmt.Errorf("restoring %s: %w", src, err)
	}
	if len(rep.Quarantined) > 0 {
		return fmt.Errorf("restoring %s quarantined %d tables", src, len(rep.Quarantined))
	}
	rdb, err := engine.Open(tl, vfs.NewPrefix(st.mount, dst), st.Opts)
	if err != nil {
		return fmt.Errorf("opening restored %s: %w", src, err)
	}
	err = compareContents(tl, rdb, want, "restored "+src)
	if cerr := rdb.Close(tl); err == nil && cerr != nil {
		err = fmt.Errorf("closing restored %s: %w", src, cerr)
	}
	return err
}
