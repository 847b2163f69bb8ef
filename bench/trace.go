package main

import (
	"container/heap"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// spanName names a call at the vfs seam.
type spanName uint8

const (
	spanAppend spanName = iota
	spanSync
	spanReadAt
	spanCreate
	spanOpen
	spanRemove
	spanRename
	spanCheckCommit
	spanIsCommitted
	spanMeta // Exists, List, Size, Close, Link: bookkeeping calls
	numSpans
)

var spanNames = [numSpans]string{
	"vfs.append", "vfs.sync", "vfs.read_at", "vfs.create", "vfs.open", "vfs.remove",
	"vfs.rename", "vfs.check_commit", "vfs.is_committed", "vfs.meta",
}

// childSpan is one call at the vfs seam, under the operation that
// caused it.
type childSpan struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Bytes       int64  `json:"bytes"`
	HostStartNs int64  `json:"host_start_ns"`
	HostEndNs   int64  `json:"host_end_ns"`
	VirtStartNs int64  `json:"virt_start_ns"`
	VirtEndNs   int64  `json:"virt_end_ns"`
	// OnOpClock is false when the call was charged to a background
	// timeline: the inline executor runs flushes and compactions on the
	// caller's goroutine (host time inside the operation) but on their
	// own virtual timelines (virtual time outside it).
	OnOpClock bool `json:"on_op_clock"`
}

// callAgg aggregates the calls of one (name, class).
type callAgg struct {
	Calls  int64 `json:"calls"`
	Bytes  int64 `json:"bytes"`
	HostNs int64 `json:"host_ns"`
	VirtNs int64 `json:"virt_ns"`
}

// opRecord is the root span of one operation, kept for every op.
type opRecord struct {
	kind        opKind
	hostNs      int64
	virtNs      int64
	childHostNs int64 // Σ vfs calls under the op
	childVirtNs int64 // Σ vfs calls charged to the op's own timeline
	flushed     bool  // the op ran inline background work (write.flush > 0)
}

// keptOp is an operation whose spans are written out in full.
type keptOp struct {
	Op          int64               `json:"op"`
	Kind        string              `json:"kind"`
	HostStartNs int64               `json:"host_start_ns"`
	HostNs      int64               `json:"host_ns"`
	VirtStartNs int64               `json:"virt_start_ns"`
	VirtNs      int64               `json:"virt_ns"`
	Phases      map[string]int64    `json:"engine_phases_virt_ns,omitempty"`
	Children    []childSpan         `json:"children,omitempty"`
	ChildCount  int                 `json:"child_count"`
	ByName      map[string]*callAgg `json:"children_by_name,omitempty"`
	sampled     bool
}

// maxKeptChildren caps the child spans written per operation; an op
// that ran an inline compaction has thousands, and children_by_name
// still accounts for all of them.
const maxKeptChildren = 64

// tracer collects spans in memory during a traced rep. The vfs seam is
// also called from the engine's background goroutines on fill_async,
// hence the mutex; on inline workloads it is never contended.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	// async: calls cannot be attributed to operations, because the
	// goroutine executor issues them concurrently with the client.
	async bool
	on    bool // inside the measured region

	agg [numSpans][numClasses]callAgg

	// The current operation (inline mode: one goroutine, so this is a
	// plain variable).
	inOp     bool
	opTL     *vclock.Timeline
	opHost   time.Time
	opVirt   vclock.Time
	cur      opRecord
	children []childSpan

	ops  []opRecord
	kept []keptOp
	// phaseNs sums the engine's own attribution of each op's virtual
	// time (obs.OpSpan) over the measured region.
	phaseNs [obs.NumPhases]int64
	// topHost and topVirt hold the largest durations seen so far; an op
	// is kept when it would enter either. topK is 0.1 % of the planned
	// operations.
	topHost, topVirt minHeap
	topK             int
	// sampleEvery is how many operations lie between two samples of the
	// shadow bytes and the heap: 10 k, fewer on a run of under 100 k.
	sampleEvery int64

	// files mirrors the namespace so table bytes on the filesystem are
	// known without calling it (a List would charge virtual time).
	files      map[string]*fileState
	tableBytes int64
	stack      *stack
	shadowPeak int64
	heapPeak   uint64
}

type fileState struct {
	class fileClass
	size  int64
	links int
}

func newTracer(async bool, plannedOps int64) *tracer {
	k := int(plannedOps / 1000)
	if k < 1 {
		k = 1
	}
	every := min(10_000, max(1, plannedOps/10))
	return &tracer{epoch: time.Now(), async: async, topK: k, sampleEvery: every, files: map[string]*fileState{}}
}

// reset starts the measured region: aggregates restart, the namespace
// mirror is kept.
func (t *tracer) reset(s *stack) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.agg = [numSpans][numClasses]callAgg{}
	t.ops, t.kept = t.ops[:0], nil
	t.phaseNs = [obs.NumPhases]int64{}
	t.topHost, t.topVirt = nil, nil
	t.stack = s
	t.shadowPeak, t.heapPeak = 0, 0
	t.on = true
}

func (t *tracer) stop() {
	t.mu.Lock()
	t.on = false
	t.mu.Unlock()
}

func (t *tracer) enter(tl *vclock.Timeline) (time.Time, vclock.Time) {
	return time.Now(), tl.Now()
}

func (t *tracer) leave(name spanName, class fileClass, bytes int64, tl *vclock.Timeline, h0 time.Time, v0 vclock.Time) {
	h1, v1 := time.Now(), tl.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	hostNs, virtNs := int64(h1.Sub(h0)), int64(v1.Sub(v0))
	a := &t.agg[name][class]
	a.Calls++
	a.Bytes += bytes
	a.HostNs += hostNs
	a.VirtNs += virtNs
	if !t.inOp || t.async {
		return
	}
	t.cur.childHostNs += hostNs
	onOp := tl == t.opTL
	if onOp {
		t.cur.childVirtNs += virtNs
	}
	t.children = append(t.children, childSpan{
		Name: spanNames[name], Class: classNames[class], Bytes: bytes,
		HostStartNs: int64(h0.Sub(t.epoch)), HostEndNs: int64(h1.Sub(t.epoch)),
		VirtStartNs: int64(v0), VirtEndNs: int64(v1), OnOpClock: onOp,
	})
}

// begin opens the root span of an operation on both clocks.
func (t *tracer) begin(kind opKind, tl *vclock.Timeline) {
	t.mu.Lock()
	t.inOp, t.opTL = true, tl
	t.cur = opRecord{kind: kind}
	t.children = t.children[:0]
	t.opVirt = tl.Now()
	t.mu.Unlock()
	t.opHost = time.Now()
}

// end closes the root span. sp is the engine's own attribution of the
// op's virtual time to its phases.
func (t *tracer) end(tl *vclock.Timeline, sp *obs.OpSpan) {
	h1 := time.Now()
	t.mu.Lock()
	t.inOp = false
	t.cur.hostNs = int64(h1.Sub(t.opHost))
	t.cur.virtNs = int64(tl.Now().Sub(t.opVirt))
	t.cur.flushed = sp.Phase(obs.PhaseWriteFlush) > 0
	for p := range t.phaseNs {
		t.phaseNs[p] += int64(sp.Phase(obs.Phase(p)))
	}
	id := int64(len(t.ops)) + 1
	t.ops = append(t.ops, t.cur)

	sampled := id%100 == 0
	top := t.topHost.offer(t.cur.hostNs, t.topK)
	if t.topVirt.offer(t.cur.virtNs, t.topK) {
		top = true
	}
	if sampled || top {
		t.keep(id, sampled, sp)
	}
	onFS, s := t.tableBytes, t.stack
	t.mu.Unlock()
	if id%t.sampleEvery != 0 || s == nil {
		return
	}
	// Sampled without t.mu: liveTableBytes takes the engine's lock, and
	// on fill_async the engine's background goroutines call the seam, and
	// so take t.mu, while they hold it. Only the client's goroutine
	// writes the peaks, and the ledger reads them after the region.
	if shadow := onFS - s.liveTableBytes(); shadow > t.shadowPeak {
		t.shadowPeak = shadow
	}
	if h := heapInUse(); h > t.heapPeak {
		t.heapPeak = h
	}
}

func (t *tracer) keep(id int64, sampled bool, sp *obs.OpSpan) {
	k := keptOp{
		Op: id, Kind: kindName(t.cur.kind), sampled: sampled,
		HostStartNs: int64(t.opHost.Sub(t.epoch)), HostNs: t.cur.hostNs,
		VirtStartNs: int64(t.opVirt), VirtNs: t.cur.virtNs,
		ChildCount: len(t.children),
		Phases:     map[string]int64{},
		ByName:     map[string]*callAgg{},
	}
	for p := 0; p < obs.NumPhases; p++ {
		if d := sp.Phase(obs.Phase(p)); d > 0 {
			k.Phases[obs.Phase(p).String()] = int64(d)
		}
	}
	for _, c := range t.children {
		a := k.ByName[c.Name]
		if a == nil {
			a = &callAgg{}
			k.ByName[c.Name] = a
		}
		a.Calls++
		a.Bytes += c.Bytes
		a.HostNs += c.HostEndNs - c.HostStartNs
		a.VirtNs += c.VirtEndNs - c.VirtStartNs
	}
	n := len(t.children)
	if n > maxKeptChildren {
		n = maxKeptChildren
	}
	k.Children = append([]childSpan(nil), t.children[:n]...)
	t.kept = append(t.kept, k)
}

func kindName(k opKind) string {
	if k == opPut {
		return "put"
	}
	return "get"
}

// Namespace mirror, fed by tracedFS.

func (t *tracer) fileCreated(name string, class fileClass) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropLocked(name)
	t.files[name] = &fileState{class: class, links: 1}
}

func (t *tracer) fileGrew(name string, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.files[name]; f != nil {
		f.size += n
		if f.class == classTable {
			t.tableBytes += n
		}
	}
}

func (t *tracer) fileRemoved(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropLocked(name)
}

func (t *tracer) dropLocked(name string) {
	f := t.files[name]
	if f == nil {
		return
	}
	delete(t.files, name)
	if f.links--; f.links == 0 && f.class == classTable {
		t.tableBytes -= f.size
	}
}

func (t *tracer) fileRenamed(oldName, newName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.files[oldName]
	if f == nil {
		return
	}
	t.dropLocked(newName)
	delete(t.files, oldName)
	t.files[newName] = f
}

func (t *tracer) fileLinked(oldName, newName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.files[oldName]; f != nil {
		f.links++
		t.files[newName] = f
	}
}

// resync rebuilds the mirror from the filesystem, after a power cut
// rolled the namespace back behind the tracer's back.
func (t *tracer) resync(s *stack) {
	tl := vclock.NewTimeline(s.tl.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.files, t.tableBytes = map[string]*fileState{}, 0
	for _, name := range s.fs.List(tl) {
		n, err := s.fs.Size(tl, name)
		if err != nil {
			continue
		}
		f := &fileState{class: classOf(name), size: n, links: 1}
		t.files[name] = f
		if f.class == classTable {
			t.tableBytes += n
		}
	}
}

// minHeap keeps the k largest values offered to it.
type minHeap []int64

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// offer reports whether v is among the k largest values so far.
func (h *minHeap) offer(v int64, k int) bool {
	if len(*h) < k {
		heap.Push(h, v)
		return true
	}
	if v <= (*h)[0] {
		return false
	}
	(*h)[0] = v
	heap.Fix(h, 0)
	return true
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload   string                         `json:"workload"`
	Seed       int64                          `json:"seed"`
	Ops        int                            `json:"ops"`
	Note       string                         `json:"note"`
	Aggregates map[string]map[string]*callAgg `json:"vfs_calls_by_name_and_class"`
	OpsByKind  map[string]*opAgg              `json:"ops_by_kind"`
	Sampled    []keptOp                       `json:"sampled_1_in_100"`
	Slowest    []keptOp                       `json:"slowest_0.1pct_by_either_clock"`
}

// opAgg aggregates the root spans of one operation kind.
type opAgg struct {
	Ops         int64 `json:"ops"`
	HostNs      int64 `json:"host_ns"`
	VirtNs      int64 `json:"virt_ns"`
	ChildHostNs int64 `json:"child_host_ns"`
	ChildVirtNs int64 `json:"child_virt_ns_on_op_clock"`
	// FlushedOps ran inline background work; FlushedHostNs is the host
	// time of those ops.
	FlushedOps    int64 `json:"ops_with_inline_background_work"`
	FlushedHostNs int64 `json:"host_ns_of_those_ops"`
}

func (t *tracer) opAggregates() map[string]*opAgg {
	out := map[string]*opAgg{"put": {}, "get": {}}
	for _, o := range t.ops {
		a := out[kindName(o.kind)]
		a.Ops++
		a.HostNs += o.hostNs
		a.VirtNs += o.virtNs
		a.ChildHostNs += o.childHostNs
		a.ChildVirtNs += o.childVirtNs
		if o.flushed {
			a.FlushedOps++
			a.FlushedHostNs += o.hostNs
		}
	}
	return out
}

// write stores the aggregates, the 1-in-100 sample and every op in the
// top 0.1 % by either clock.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := traceFile{
		Workload: workload, Seed: seed, Ops: len(t.ops),
		Note: "host_*: host clock, ns since the tracer started; virt_*: the simulated clock. " +
			"A layer's self time is its span minus its children: engine self = op - sum(vfs children). " +
			"At most 64 child spans are written per op; children_by_name accounts for all of them.",
		Aggregates: map[string]map[string]*callAgg{},
		OpsByKind:  t.opAggregates(),
	}
	for n := spanName(0); n < numSpans; n++ {
		for c := fileClass(0); c < numClasses; c++ {
			if a := t.agg[n][c]; a.Calls > 0 {
				if f.Aggregates[spanNames[n]] == nil {
					f.Aggregates[spanNames[n]] = map[string]*callAgg{}
				}
				f.Aggregates[spanNames[n]][classNames[c]] = &a
			}
		}
	}
	// An op kept early for being in the running top 0.1 % may have
	// dropped out of it since; the final thresholds decide.
	hostMin, virtMin := int64(0), int64(0)
	if len(t.topHost) > 0 {
		hostMin, virtMin = t.topHost[0], t.topVirt[0]
	}
	for _, k := range t.kept {
		if k.HostNs >= hostMin || k.VirtNs >= virtMin {
			f.Slowest = append(f.Slowest, k)
		}
		if k.sampled {
			f.Sampled = append(f.Sampled, k)
		}
	}
	sort.Slice(f.Slowest, func(i, j int) bool { return f.Slowest[i].VirtNs > f.Slowest[j].VirtNs })
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sum adds up the aggregates of one span name over the given classes
// (all classes when none is given).
func (t *tracer) sum(name spanName, classes ...fileClass) callAgg {
	var out callAgg
	add := func(a callAgg) {
		out.Calls += a.Calls
		out.Bytes += a.Bytes
		out.HostNs += a.HostNs
		out.VirtNs += a.VirtNs
	}
	if len(classes) == 0 {
		for c := range t.agg[name] {
			add(t.agg[name][c])
		}
	}
	for _, c := range classes {
		add(t.agg[name][c])
	}
	return out
}
