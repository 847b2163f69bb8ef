package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/wal"
)

// planKey is the user key of integer k in the planner's tests.
func planKey(k int) []byte { return []byte(fmt.Sprintf("k%04d", k)) }

// history logs version edits the way the engine does: every edit
// carries the next file number and last sequence number, a flush its
// log number, a compaction deletes its inputs at their levels, and a
// trivial move deletes and re-adds one file. It tracks each table's
// contents, key to sequence number, for the lookup checks.
type history struct {
	edits []*version.VersionEdit
	meta  map[uint64]*version.FileMeta
	level map[uint64]int
	data  map[uint64]map[int]keys.SeqNum
	seq   keys.SeqNum
	log   uint64
	next  uint64
}

func newHistory() *history {
	h := &history{
		meta:  make(map[uint64]*version.FileMeta),
		level: make(map[uint64]int),
		data:  make(map[uint64]map[int]keys.SeqNum),
		next:  100,
	}
	// The first edit of a fresh store names its log and nothing else.
	h.log++
	e := &version.VersionEdit{}
	e.SetLogNumber(h.log)
	h.append(e)
	return h
}

func (h *history) append(e *version.VersionEdit) int {
	e.SetNextFileNumber(h.next)
	e.SetLastSeq(h.seq)
	h.edits = append(h.edits, e)
	return len(h.edits) - 1
}

// table makes table num holding ks, each at a fresh sequence number
// unless data gives the contents.
func (h *history) table(num uint64, ks []int, data map[int]keys.SeqNum) *version.FileMeta {
	if data == nil {
		data = make(map[int]keys.SeqNum)
		for _, k := range ks {
			h.seq++
			data[k] = h.seq
		}
	}
	lo, hi := slices.Min(ks), slices.Max(ks)
	m := &version.FileMeta{
		Number:   num,
		Size:     int64(len(ks)) << 10,
		Smallest: keys.MakeInternalKey(nil, planKey(lo), data[lo], keys.KindValue),
		Largest:  keys.MakeInternalKey(nil, planKey(hi), data[hi], keys.KindValue),
	}
	h.meta[num], h.data[num] = m, data
	if num >= h.next {
		h.next = num + 1
	}
	return m
}

// span lists the keys lo..hi.
func span(lo, hi int) []int {
	var ks []int
	for k := lo; k <= hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// snapshot logs a manifest's first record: files placed at once, with
// no log behind them. Each of at is {table, level, lo, hi}, deepest
// first, so shallower tables hold newer sequence numbers.
func (h *history) snapshot(at ...[4]int) {
	e := &version.VersionEdit{}
	h.log++
	e.SetLogNumber(h.log)
	for _, a := range at {
		num, level := uint64(a[0]), a[1]
		e.AddFile(level, h.table(num, span(a[2], a[3]), nil))
		h.level[num] = level
	}
	h.edits = h.edits[:0]
	h.append(e)
}

func (h *history) flush(num uint64, level int, ks []int) int {
	e := &version.VersionEdit{}
	h.log++
	e.SetLogNumber(h.log)
	e.AddFile(level, h.table(num, ks, nil))
	h.level[num] = level
	return h.append(e)
}

// compact merges inputs into outputs at level, the newest sequence
// number of each key winning; outs gives each output's key range.
func (h *history) compact(inputs []uint64, level int, outs ...[3]int) int {
	e := &version.VersionEdit{}
	merged := make(map[int]keys.SeqNum)
	for _, in := range inputs {
		e.DeleteFile(h.level[in], in)
		for k, s := range h.data[in] {
			merged[k] = max(merged[k], s)
		}
		delete(h.level, in)
	}
	for _, o := range outs {
		part := make(map[int]keys.SeqNum)
		var ks []int
		for k := o[1]; k <= o[2]; k++ {
			if s, ok := merged[k]; ok {
				part[k] = s
				ks = append(ks, k)
			}
		}
		num := uint64(o[0])
		e.AddFile(level, h.table(num, ks, part))
		h.level[num] = level
	}
	return h.append(e)
}

func (h *history) move(num uint64, to int) int {
	e := &version.VersionEdit{}
	e.DeleteFile(h.level[num], num)
	e.AddFile(to, h.meta[num])
	h.level[num] = to
	return h.append(e)
}

// levelsOf maps every file of v to its level.
func levelsOf(v *version.Version) map[uint64]int {
	out := make(map[uint64]int)
	for level, files := range v.Files {
		for _, f := range files {
			out[f.Number] = level
		}
	}
	return out
}

func numbers(set map[uint64]bool) []uint64 {
	var out []uint64
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Shapes (a)–(c) of a compaction held back by a crash: L2#5 and L3#6
// went to L3 as #8, whose bytes never reached the disk, and a later
// install placed newer data into the L2 range #5 vacated.
func shapeTrivialMove(h *history) {
	h.snapshot([4]int{6, 3, 12, 18}, [4]int{5, 2, 10, 20}, [4]int{7, 1, 15, 30})
	h.compact([]uint64{5, 6}, 3, [3]int{8, 10, 20})
	h.move(7, 2)
}

func shapeCompaction(h *history) {
	h.snapshot([4]int{6, 3, 12, 18}, [4]int{5, 2, 10, 20}, [4]int{9, 2, 25, 40}, [4]int{7, 1, 15, 30})
	h.compact([]uint64{5, 6}, 3, [3]int{8, 10, 20})
	h.compact([]uint64{7, 9}, 2, [3]int{10, 15, 40})
}

func TestRecoveryPlan(t *testing.T) {
	cases := []struct {
		name    string
		build   func(h *history)
		missing []uint64
		// levels is the recovered version, file to level.
		levels     map[uint64]int
		undone     []int
		repair     bool
		logNumber  uint64
		superseded []uint64
		condemned  []uint64
	}{{
		name:       "a: a trivial move into the range a lost compaction vacated stays undone",
		build:      shapeTrivialMove,
		missing:    []uint64{8},
		levels:     map[uint64]int{5: 2, 6: 3, 7: 1},
		undone:     []int{1, 2},
		logNumber:  2,
		condemned:  []uint64{8},
		superseded: nil,
	}, {
		name:      "b: a compaction into the vacated range with intact inputs is undone",
		build:     shapeCompaction,
		missing:   []uint64{8},
		levels:    map[uint64]int{5: 2, 6: 3, 7: 1, 9: 2},
		undone:    []int{1, 2},
		logNumber: 2,
		condemned: []uint64{8, 10},
	}, {
		name:      "c: a compaction into the vacated range whose inputs are gone asks for repair",
		build:     shapeCompaction,
		missing:   []uint64{8, 7, 9},
		levels:    map[uint64]int{5: 2, 6: 3, 10: 2},
		undone:    []int{1},
		repair:    true,
		logNumber: 2,
		condemned: []uint64{8},
	}, {
		name: "nothing lost: every edit applies",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
			h.compact([]uint64{3, 4}, 1, [3]int{5, 1, 8})
		},
		levels:     map[uint64]int{5: 1},
		logNumber:  3,
		superseded: []uint64{3, 4},
	}, {
		name: "inputs a committed compaction consumed are gone from the prefix",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
			h.compact([]uint64{3, 4}, 1, [3]int{5, 1, 8})
		},
		missing:    []uint64{3, 4},
		levels:     map[uint64]int{5: 1},
		logNumber:  3,
		superseded: []uint64{3, 4},
	}, {
		name: "a lost flush output is undone and its log replayed",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
		},
		missing:   []uint64{4},
		levels:    map[uint64]int{3: 0},
		undone:    []int{2},
		logNumber: 2,
		condemned: []uint64{4},
	}, {
		name: "covered: a lost output falls back to intact inputs",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
			h.compact([]uint64{3, 4}, 1, [3]int{5, 1, 4}, [3]int{6, 5, 8})
		},
		missing:   []uint64{6},
		levels:    map[uint64]int{3: 0, 4: 0},
		undone:    []int{3},
		logNumber: 3,
		condemned: []uint64{5, 6},
	}, {
		name: "uncovered: a lost output whose inputs are gone asks for repair and keeps its siblings",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
			h.compact([]uint64{3, 4}, 1, [3]int{5, 1, 4}, [3]int{6, 5, 8})
		},
		missing:   []uint64{3, 4, 6},
		levels:    map[uint64]int{5: 1, 6: 1},
		repair:    true,
		logNumber: 3,
	}, {
		name: "a chain of lost compactions falls back to the first one's inputs",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
			h.compact([]uint64{3, 4}, 1, [3]int{5, 1, 8})
			h.compact([]uint64{5}, 2, [3]int{6, 1, 4}, [3]int{7, 5, 8})
		},
		missing:   []uint64{5, 6},
		levels:    map[uint64]int{3: 0, 4: 0},
		undone:    []int{3, 4},
		logNumber: 3,
		condemned: []uint64{5, 6, 7},
	}, {
		name: "a lost output behind a trivial move: both undone",
		build: func(h *history) {
			h.flush(3, 0, span(1, 5))
			h.flush(4, 0, span(3, 8))
			h.compact([]uint64{3, 4}, 1, [3]int{5, 1, 8})
			h.move(5, 2)
		},
		missing:   []uint64{5},
		levels:    map[uint64]int{3: 0, 4: 0},
		undone:    []int{3, 4},
		logNumber: 3,
		condemned: []uint64{5},
	}, {
		name: "a flush pushed into the vacated range asks for repair",
		build: func(h *history) {
			h.snapshot([4]int{5, 2, 10, 20}, [4]int{6, 3, 12, 18})
			h.compact([]uint64{5, 6}, 3, [3]int{8, 10, 20})
			h.flush(9, 2, span(14, 16))
		},
		missing:   []uint64{8},
		levels:    map[uint64]int{5: 2, 6: 3, 9: 2},
		undone:    []int{1},
		repair:    true,
		logNumber: 3,
		condemned: []uint64{8},
	}, {
		name: "a lost snapshot table asks for repair",
		build: func(h *history) {
			h.snapshot([4]int{5, 1, 10, 20}, [4]int{6, 1, 30, 40})
		},
		missing:   []uint64{5},
		levels:    map[uint64]int{5: 1, 6: 1},
		repair:    true,
		logNumber: 2,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistory()
			c.build(h)
			asked := make(map[uint64]int)
			p := planRecovery(h.edits, func(num uint64) bool {
				asked[num]++
				return !slices.Contains(c.missing, num)
			})
			for num, n := range asked {
				if n > 1 {
					t.Errorf("oracle asked %d times about #%d", n, num)
				}
			}
			if got := levelsOf(p.version); !mapsEqual(got, c.levels) {
				t.Errorf("version %v, want %v", got, c.levels)
			}
			if !slices.Equal(p.undone, c.undone) {
				t.Errorf("undone %v, want %v", p.undone, c.undone)
			}
			if p.needsRepair != c.repair {
				t.Errorf("needsRepair %v, want %v", p.needsRepair, c.repair)
			}
			if p.logNumber != c.logNumber {
				t.Errorf("log number %d, want %d", p.logNumber, c.logNumber)
			}
			if got := numbers(p.superseded); !slices.Equal(got, c.superseded) {
				t.Errorf("superseded %v, want %v", got, c.superseded)
			}
			if got := numbers(p.condemned); !slices.Equal(got, c.condemned) {
				t.Errorf("condemned %v, want %v", got, c.condemned)
			}
		})
	}
}

func mapsEqual(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// randomHistory grows a small leveled tree the way the engine's picker
// does: flushes pushed past L0 while nothing overlaps, up to L2; all of
// L0, or one file of a deeper level, compacted into the overlapping
// files of the next level; and a trivial move where nothing overlaps.
func randomHistory(rng *rand.Rand, ops, keyspace int) *history {
	h := newHistory()
	overlapping := func(level, lo, hi int) []uint64 {
		var out []uint64
		for num, l := range h.level {
			m := h.meta[num]
			if l == level && keys.CompareUser(m.LargestUser(), planKey(lo)) >= 0 &&
				keys.CompareUser(m.SmallestUser(), planKey(hi)) <= 0 {
				out = append(out, num)
			}
		}
		slices.Sort(out)
		return out
	}
	bounds := func(files []uint64) (lo, hi int) {
		lo, hi = keyspace, -1
		for _, f := range files {
			for k := range h.data[f] {
				lo, hi = min(lo, k), max(hi, k)
			}
		}
		return lo, hi
	}
	for op := 0; op < ops; op++ {
		var levels []int
		for level := 0; level < version.NumLevels-1; level++ {
			if len(overlapping(level, 0, keyspace)) > 0 {
				levels = append(levels, level)
			}
		}
		if len(levels) == 0 || rng.Intn(3) == 0 {
			lo := rng.Intn(keyspace)
			ks := span(lo, min(keyspace-1, lo+rng.Intn(4)))
			level := 0
			for level < 2 && len(overlapping(level, ks[0], ks[len(ks)-1])) == 0 &&
				len(overlapping(level+1, ks[0], ks[len(ks)-1])) == 0 {
				level++
			}
			h.flush(h.next, level, ks)
			continue
		}
		level := levels[rng.Intn(len(levels))]
		inputs := overlapping(level, 0, keyspace)
		if level > 0 {
			i := rng.Intn(len(inputs))
			inputs = inputs[i : i+1]
		}
		lo, hi := bounds(inputs)
		below := overlapping(level+1, lo, hi)
		if len(inputs) == 1 && len(below) == 0 {
			h.move(inputs[0], level+1)
			continue
		}
		all := append(inputs, below...)
		lo, hi = bounds(all)
		var outs [][3]int
		for k := lo; k <= hi; k += 3 {
			num := int(h.next) + len(outs)
			outs = append(outs, [3]int{num, k, min(hi, k+2)})
		}
		// An output range the inputs hold no key of is no output.
		outs = slices.DeleteFunc(outs, func(o [3]int) bool {
			for _, f := range all {
				for k := range h.data[f] {
					if k >= o[1] && k <= o[2] {
						return false
					}
				}
			}
			return true
		})
		h.compact(all, level+1, outs...)
	}
	return h
}

// crashValidity draws a crash-consistent set of intact tables for the
// first n edits of h: any subset of the outputs of the last k installs
// is lost, an install's inputs stay until all its outputs are intact,
// and an input of an install whose outputs are all intact may be gone.
func crashValidity(rng *rand.Rand, h *history, n, k int) map[uint64]bool {
	var installs []int
	for i, e := range h.edits[:n] {
		if len(outputs(e)) > 0 {
			installs = append(installs, i)
		}
	}
	missing := make(map[uint64]bool)
	for _, i := range installs[max(0, len(installs)-k):] {
		for _, num := range outputs(h.edits[i]) {
			if rng.Intn(2) == 0 {
				missing[num] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, i := range installs {
			if !slices.ContainsFunc(outputs(h.edits[i]), func(num uint64) bool { return missing[num] }) {
				continue
			}
			for _, num := range inputs(h.edits[i]) {
				if missing[num] {
					delete(missing, num)
					changed = true
				}
			}
		}
	}
	for _, i := range installs {
		if slices.ContainsFunc(outputs(h.edits[i]), func(num uint64) bool { return missing[num] }) {
			continue
		}
		for _, num := range inputs(h.edits[i]) {
			if rng.Intn(2) == 0 {
				missing[num] = true
			}
		}
	}
	return missing
}

// outputs and inputs are the files an edit creates and the files it
// consumes; a trivial move has neither.
func outputs(e *version.VersionEdit) []uint64 {
	var out []uint64
	for _, nf := range e.NewFiles {
		if !slices.ContainsFunc(e.DeletedFiles, func(df version.DeletedFile) bool { return df.Number == nf.Meta.Number }) {
			out = append(out, nf.Meta.Number)
		}
	}
	return out
}

func inputs(e *version.VersionEdit) []uint64 {
	var out []uint64
	for _, df := range e.DeletedFiles {
		if !slices.ContainsFunc(e.NewFiles, func(nf version.NewFile) bool { return nf.Meta.Number == df.Number }) {
			out = append(out, df.Number)
		}
	}
	return out
}

// newestFirst reports a key whose newest version in v is not the one a
// lookup reaches first, the first file in ForLookup order that holds
// the key; "" when there is none.
func newestFirst(h *history, v *version.Version, keyspace int) string {
	for k := 0; k < keyspace; k++ {
		var newest keys.SeqNum
		for _, files := range v.Files {
			for _, f := range files {
				newest = max(newest, h.data[f.Number][k])
			}
		}
		for level := range v.Files {
			for _, f := range v.ForLookup(level, planKey(k), false) {
				s, ok := h.data[f.Number][k]
				if !ok {
					continue
				}
				if s != newest {
					return fmt.Sprintf("key %d: lookup reaches #%d@L%d seq %d, newest is seq %d", k, f.Number, level, s, newest)
				}
				goto next
			}
		}
	next:
	}
	return ""
}

// overlapLeft reports whether a file an undo brought back still
// overlaps a live file at its level or a deeper one (level ≥ 1).
func overlapLeft(p recoveryPlan) bool {
	live := levelsOf(p.version)
	meta := make(map[uint64]*version.FileMeta)
	for _, files := range p.version.Files {
		for _, f := range files {
			meta[f.Number] = f
		}
	}
	for _, r := range p.resurrected {
		if live[r.Number] != r.Level {
			continue
		}
		for level := max(1, r.Level); level < version.NumLevels; level++ {
			for _, f := range p.version.Files[level] {
				if f.Number != r.Number && overlaps(f, meta[r.Number]) {
					return true
				}
			}
		}
	}
	return false
}

// TestRecoveryPlanProperty plans random leveled histories under random
// crash-consistent validity sets. Every file of the recovered version
// is intact; without repair, a lookup reaches each key's newest
// version in the version first, and that version is the newest the
// durable history wrote, counting flushes whose log recovery replays;
// and repair is asked for only where an undo's overlap is left.
func TestRecoveryPlanProperty(t *testing.T) {
	const keyspace = 24
	repairs, undos := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 10+rng.Intn(40), keyspace)
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(len(h.edits))
			missing := crashValidity(rng, h, n, rng.Intn(5))
			p := planRecovery(h.edits[:n], func(num uint64) bool { return !missing[num] })
			if msg := checkPlan(h, h.edits[:n], missing, p, keyspace); msg != "" {
				for i, e := range h.edits[:n] {
					t.Logf("edit %d: log %d, deletes %v, adds %v", i, e.LogNumber, e.DeletedFiles, outputs(e))
				}
				t.Logf("plan: undone %v, log %d, version %v", p.undone, p.logNumber, levelsOf(p.version))
				t.Fatalf("seed %d trial %d (%d edits, missing %v): %s", seed, trial, n, numbers(missing), msg)
			}
			undos += len(p.undone)
			if p.needsRepair {
				repairs++
			}
		}
	}
	t.Logf("%d edits undone, %d plans asked for repair", undos, repairs)
}

func checkPlan(h *history, edits []*version.VersionEdit, missing map[uint64]bool, p recoveryPlan, keyspace int) string {
	for _, files := range p.version.Files {
		for _, f := range files {
			if missing[f.Number] {
				return fmt.Sprintf("version holds lost #%d", f.Number)
			}
		}
	}
	if p.needsRepair {
		if !overlapLeft(p) {
			return "repair asked for with no overlap left"
		}
		return ""
	}
	if msg := newestFirst(h, p.version, keyspace); msg != "" {
		return msg
	}
	// The newest version of each key the durable history wrote, and
	// what recovery serves: the version's, or a replayed log's.
	durable := version.NewBuilder(&version.Version{})
	for _, e := range edits {
		durable.Apply(e)
	}
	want := newestByKey(h, durable.Finish())
	got := newestByKey(h, p.version)
	for _, e := range edits {
		if e.HasLogNumber && len(e.NewFiles) == 1 && e.LogNumber > p.logNumber {
			for k, s := range h.data[e.NewFiles[0].Meta.Number] {
				got[k] = max(got[k], s)
			}
		}
	}
	for k := 0; k < keyspace; k++ {
		if got[k] != want[k] {
			return fmt.Sprintf("key %d: recovery serves seq %d, the durable history wrote seq %d", k, got[k], want[k])
		}
	}
	return ""
}

func newestByKey(h *history, v *version.Version) map[int]keys.SeqNum {
	out := make(map[int]keys.SeqNum)
	for _, files := range v.Files {
		for _, f := range files {
			for k, s := range h.data[f.Number] {
				out[k] = max(out[k], s)
			}
		}
	}
	return out
}

// encodePlanInput frames a fuzz input: the lost tables, then the
// manifest's edits, each length-prefixed.
func encodePlanInput(edits []*version.VersionEdit, missing ...uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(missing)))
	for _, m := range missing {
		b = binary.AppendUvarint(b, m)
	}
	for _, e := range edits {
		rec := e.Encode()
		b = binary.AppendUvarint(b, uint64(len(rec)))
		b = append(b, rec...)
	}
	return b
}

// FuzzRecoveryPlan plans arbitrary edit sequences under arbitrary lost
// tables: the oracle is asked at most once per table, planning twice
// decides the same, and a plan that needs no repair holds no lost
// table.
func FuzzRecoveryPlan(f *testing.F) {
	for _, c := range []struct {
		build   func(h *history)
		missing []uint64
	}{
		{shapeTrivialMove, []uint64{8}},
		{shapeCompaction, []uint64{8}},
		{shapeCompaction, []uint64{8, 7, 9}},
	} {
		h := newHistory()
		c.build(h)
		f.Add(encodePlanInput(h.edits, c.missing...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, w := binary.Uvarint(data)
		if w <= 0 || n > 64 {
			return
		}
		data = data[w:]
		missing := make(map[uint64]bool)
		for ; n > 0; n-- {
			m, w := binary.Uvarint(data)
			if w <= 0 {
				return
			}
			missing[m], data = true, data[w:]
		}
		var edits []*version.VersionEdit
		for len(data) > 0 {
			l, w := binary.Uvarint(data)
			if w <= 0 || l > uint64(len(data)-w) {
				return
			}
			e, err := version.DecodeEdit(data[w : w+int(l)])
			if err != nil {
				return
			}
			for _, nf := range e.NewFiles {
				if nf.Level >= version.NumLevels {
					return
				}
			}
			for _, df := range e.DeletedFiles {
				if df.Level >= version.NumLevels {
					return
				}
			}
			edits, data = append(edits, e), data[w+int(l):]
		}
		plan := func() (recoveryPlan, map[uint64]int) {
			asked := make(map[uint64]int)
			return planRecovery(edits, func(num uint64) bool {
				asked[num]++
				return !missing[num]
			}), asked
		}
		p, asked := plan()
		for num, c := range asked {
			if c > 1 {
				t.Fatalf("oracle asked %d times about #%d", c, num)
			}
		}
		q, _ := plan()
		if !slices.Equal(p.undone, q.undone) || p.needsRepair != q.needsRepair ||
			!mapsEqual(levelsOf(p.version), levelsOf(q.version)) {
			t.Fatalf("two plans differ: undone %v/%v, repair %v/%v", p.undone, q.undone, p.needsRepair, q.needsRepair)
		}
		if p.needsRepair {
			return
		}
		for _, files := range p.version.Files {
			for _, f := range files {
				if missing[f.Number] {
					t.Fatalf("plan needs no repair but holds lost #%d", f.Number)
				}
			}
		}
	})
}

// TestOpenRecoversHeldBackCompaction lays down shape (a) on a
// filesystem — a real table for every file but the lost #8, and a
// hand-written MANIFEST — and opens it: every Get must return the
// newest version.
func TestOpenRecoversHeldBackCompaction(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncAll)
	h := newHistory()
	shapeTrivialMove(h)
	topts := sstable.Options{BlockSize: opts.sanitize().BlockSize, RestartInterval: 16,
		BloomBitsPerKey: opts.sanitize().BloomBitsPerKey}
	newest := make(map[int]keys.SeqNum)
	for _, num := range []uint64{5, 6, 7} {
		f, err := fs.Create(tl, TableName(num))
		if err != nil {
			t.Fatal(err)
		}
		b := sstable.NewBuilder(f, topts)
		ks := make([]int, 0, len(h.data[num]))
		for k := range h.data[num] {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		for _, k := range ks {
			s := h.data[num][k]
			newest[k] = max(newest[k], s)
			if err := b.Add(tl, keys.MakeInternalKey(nil, planKey(k), s, keys.KindValue), []byte(fmt.Sprint(s))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Finish(tl); err != nil {
			t.Fatal(err)
		}
		f.Close(tl)
	}
	mf, err := fs.Create(tl, ManifestName(2))
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(mf)
	for _, e := range h.edits {
		if err := w.AddRecord(tl, e.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	mf.Close(tl)
	if err := fs.WriteFile(tl, CurrentName, []byte(ManifestName(2)+"\n")); err != nil {
		t.Fatal(err)
	}

	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	for k, s := range newest {
		got, err := db.Get(tl, planKey(k))
		if err != nil || string(got) != fmt.Sprint(s) {
			t.Errorf("key %d: got %q, %v; want the newest version, seq %d", k, got, err, s)
		}
	}
	reg := db.Registry()
	if u, r := reg.Counter("engine.recovery.edits_undone").Value(), reg.Counter("engine.recovery.files_resurrected").Value(); u != 2 || r != 3 {
		t.Errorf("recovery undid %d edits and resurrected %d files, want 2 and 3", u, r)
	}
}
