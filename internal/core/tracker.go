// Package core implements NobLSM's contribution (Section 4 of the
// paper): crash-consistent major compactions without fsync, built on
// ext4's asynchronous journal commits.
//
// After a major compaction produces q new SSTables (successors) from p
// old ones (predecessors), NobLSM does not sync the successors.
// Instead it:
//
//  1. registers the successors' inodes with the kernel via the
//     check_commit syscall;
//  2. records the p→q dependency in a global pair of sets, keeping the
//     predecessors on disk as shadow backups (they are out of the
//     Version, so they serve no reads);
//  3. polls is_committed every poll interval (5 s, matching the
//     journal commit cadence) and, once every successor of a
//     dependency is committed, releases its predecessors to the
//     engine, which unlinks them as soon as no reader holds them —
//     the kernel erases their Committed-Table entries on unlink.
//
// The tracker decides when a shadow is no longer needed and never
// touches a file: whether a released table can be unlinked yet is the
// engine's one disposal decision (internal/engine/disposal.go).
//
// A crash before the successors commit rolls the filesystem back to a
// state where the (durable prefix of the) MANIFEST still references
// the predecessors, which are still on disk; a crash after it either
// sees the same, or the new version with durable successors. Either
// way every referenced SSTable is intact — the consistency the paper's
// power-cut test verifies.
package core

import (
	"slices"
	"sort"
	"sync"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// Syscalls is the kernel interface the tracker needs — the syscalls
// NobLSM adds to ext4, part of every vfs.FS.
type Syscalls = vfs.Syscalls

// Succ identifies a successor whose durability gates reclamation.
type Succ struct {
	Number uint64
	Ino    int64
}

// dep is one p→q mapping between the global predecessor and successor
// sets. Reclamation additionally waits for the MANIFEST edit that
// recorded the compaction to be durable (manifestOff committed), or a
// crash could leave the durable manifest referencing predecessors
// whose unlinks — cheap metadata operations — committed first.
type dep struct {
	preds []uint64 // predecessor file numbers
	succs []uint64 // all successor file numbers, for introspection
	// waiting holds the successor inos not yet seen committed, in
	// registration order. A slice, not a map: Poll stops at the first
	// uncommitted one, so the order decides how many is_committed
	// calls are charged to the virtual clock and must be the same on
	// every run.
	waiting     []int64
	manifestIno int64
	manifestOff int64
}

// Tracker is the user-space half of NobLSM: the global pair of
// predecessor/successor sets with their p→q dependencies.
type Tracker struct {
	mu           sync.Mutex
	sys          Syscalls
	released     func(tl *vclock.Timeline, num uint64)
	pollInterval vclock.Duration
	lastPoll     vclock.Time
	deps         []*dep
	// protected counts, per predecessor file number, the live
	// dependencies retaining it; the engine's obsolete-file GC must
	// skip protected files.
	protected map[uint64]int
	m         trackerMetrics
	trace     *obs.Tracer
}

// trackerMetrics are the tracker counters, resolved once from a
// registry under the "tracker." prefix: dependencies ever registered,
// dependencies fully committed and released, predecessor files
// released for deletion, is_committed sweep rounds, and individual
// is_committed calls.
type trackerMetrics struct {
	registered    *obs.Counter
	resolved      *obs.Counter
	predsDeleted  *obs.Counter
	polls         *obs.Counter
	syscallChecks *obs.Counter
}

func newTrackerMetrics(r *obs.Registry) trackerMetrics {
	return trackerMetrics{
		registered:    r.Counter("tracker.registered"),
		resolved:      r.Counter("tracker.resolved"),
		predsDeleted:  r.Counter("tracker.preds_deleted"),
		polls:         r.Counter("tracker.polls"),
		syscallChecks: r.Counter("tracker.syscall_checks"),
	}
}

// NewTrackerObserved returns a tracker using sys for commit inquiries;
// it calls released, holding no lock, for each predecessor file number
// no dependency retains any longer, at the instant and on the timeline
// of the poll that found out. pollInterval should match the journal
// commit interval (the paper uses 5 s for both). The tracker's counters
// are registered into r (nil: private registry) and retention/poll
// events emitted to trace (nil: no tracing).
func NewTrackerObserved(sys Syscalls, pollInterval vclock.Duration, released func(tl *vclock.Timeline, num uint64), r *obs.Registry, trace *obs.Tracer) *Tracker {
	if pollInterval <= 0 {
		panic("core: poll interval must be positive")
	}
	if r == nil {
		r = obs.NewRegistry()
	}
	return &Tracker{
		sys:          sys,
		released:     released,
		pollInterval: pollInterval,
		protected:    make(map[uint64]int),
		m:            newTrackerMetrics(r),
		trace:        trace,
	}
}

// RegisterWithManifest records a compaction's p→q dependency: preds
// are retained as shadow backups until every successor inode is
// committed and the MANIFEST (manifestIno) is durably committed past
// manifestOff — the end of the edit describing this compaction. A zero
// ino skips the manifest condition. The successors are handed to the
// kernel via check_commit. Registering with no predecessors still
// tracks the successors (nothing to release); registering with no
// successors and no manifest condition releases preds at once: the
// empty set trivially resolves.
func (t *Tracker) RegisterWithManifest(tl *vclock.Timeline, preds []uint64, succs []Succ, manifestIno int64, manifestOff int64) {
	inos := make([]int64, len(succs))
	for i, s := range succs {
		inos[i] = s.Ino
	}
	if len(inos) > 0 {
		t.sys.CheckCommit(tl, inos...)
	}

	t.mu.Lock()
	t.m.registered.Inc()
	if len(succs) == 0 && manifestIno == 0 {
		// Nothing gates the release.
		t.mu.Unlock()
		for _, p := range preds {
			t.released(tl, p)
		}
		t.m.resolved.Inc()
		t.m.predsDeleted.Add(int64(len(preds)))
		return
	}
	d := &dep{
		preds:       preds,
		waiting:     inos,
		manifestIno: manifestIno,
		manifestOff: manifestOff,
	}
	for _, s := range succs {
		d.succs = append(d.succs, s.Number)
	}
	for _, p := range preds {
		t.protected[p]++
	}
	t.deps = append(t.deps, d)
	t.mu.Unlock()
	if t.trace != nil {
		t.trace.Instant(obs.TidTracker, "tracker", "shadow.retain", tl.Now(),
			obs.KV{K: "preds", V: preds}, obs.KV{K: "succs", V: len(succs)})
	}
}

// Protected reports whether the file number is retained as a shadow
// predecessor and must not be garbage-collected.
func (t *Tracker) Protected(number uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.protected[number] > 0
}

// CancelFor atomically claims the unresolved dependencies that name
// succs as successors, on behalf of a heal that rolls the version back
// onto their predecessors: all of them, or none if some successor is
// named by no unresolved dependency (it already resolved and its
// shadows are gone, or was never tracked) — then the heal must not
// proceed. A claimed dependency is dropped and its predecessors'
// protection with it, WITHOUT releasing the files: the heal returns
// them to the version, where liveness protects them, or disposes of
// them itself.
//
// Safe against a concurrent Poll: Poll re-checks membership in t.deps
// under mu before resolving, so a dependency claimed here can never
// also be resolved there.
func (t *Tracker) CancelFor(succs ...uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	claimed := make(map[*dep]bool, len(succs))
	for _, s := range succs {
		i := slices.IndexFunc(t.deps, func(d *dep) bool { return slices.Contains(d.succs, s) })
		if i < 0 {
			return false
		}
		claimed[t.deps[i]] = true
	}
	remaining := t.deps[:0]
	for _, d := range t.deps {
		if !claimed[d] {
			remaining = append(remaining, d)
			continue
		}
		for _, p := range d.preds {
			t.protected[p]--
			if t.protected[p] <= 0 {
				delete(t.protected, p)
			}
		}
	}
	t.deps = remaining
	return true
}

// PendingDeps reports the number of unresolved dependencies.
func (t *Tracker) PendingDeps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.deps)
}

// DepInfo describes one unresolved p→q dependency for introspection.
type DepInfo struct {
	// Preds are the retained shadow predecessor file numbers.
	Preds []uint64
	// Succs are ALL the dependency's successor file numbers — every
	// output of the compaction, present as one set because
	// registration is a single atomic step.
	Succs []uint64
	// WaitingSuccs counts successor inodes no poll has yet seen
	// committed.
	WaitingSuccs int
}

// Inventory is a point-in-time view of the tracker's retention state,
// backing the "noblsm.tracker" property.
type Inventory struct {
	// Deps are the unresolved dependencies, oldest first.
	Deps []DepInfo
	// Protected are the shadow-retained predecessor file numbers,
	// sorted ascending.
	Protected []uint64
}

// Inventory snapshots the retention state.
func (t *Tracker) Inventory() Inventory {
	t.mu.Lock()
	defer t.mu.Unlock()
	inv := Inventory{}
	for _, d := range t.deps {
		di := DepInfo{WaitingSuccs: len(d.waiting)}
		di.Preds = append(di.Preds, d.preds...)
		di.Succs = append(di.Succs, d.succs...)
		inv.Deps = append(inv.Deps, di)
	}
	for n := range t.protected {
		inv.Protected = append(inv.Protected, n)
	}
	sort.Slice(inv.Protected, func(i, j int) bool { return inv.Protected[i] < inv.Protected[j] })
	return inv
}

// MaybePoll runs a poll if a poll interval elapsed since the last one.
// The engine calls it opportunistically from its operation paths,
// which is how the "every five seconds" background inquiry manifests
// in virtual time.
func (t *Tracker) MaybePoll(tl *vclock.Timeline) {
	t.mu.Lock()
	due := len(t.deps) > 0 && tl.Now() >= t.lastPoll.Add(t.pollInterval)
	t.mu.Unlock()
	if due {
		t.Poll(tl)
	}
}

// Poll sweeps the dependency set: for each, it asks ext4 (via
// is_committed) about the successors still waiting, in registration
// order, and stops at the first uncommitted one — the dependency
// cannot resolve in this poll, so the answers for the rest would
// change nothing. Dependencies whose successors are all committed
// have their predecessors released and are dropped.
func (t *Tracker) Poll(tl *vclock.Timeline) {
	t.mu.Lock()
	t.lastPoll = tl.Now()
	t.m.polls.Inc()
	deps := append([]*dep(nil), t.deps...)
	t.mu.Unlock()
	pollStart := tl.Now()

	var resolved []*dep
	for _, d := range deps {
		// Polls may overlap (every reader calls MaybePoll): each works
		// from its own snapshot of waiting and stores back a suffix of
		// it, so whatever is stored has only committed inodes cut off.
		t.mu.Lock()
		waiting := d.waiting
		t.mu.Unlock()
		n := 0
		for n < len(waiting) {
			t.m.syscallChecks.Inc()
			if !t.sys.IsCommitted(tl, waiting[n]) {
				break
			}
			n++
		}
		if n > 0 {
			t.mu.Lock()
			d.waiting = waiting[n:]
			t.mu.Unlock()
		}
		if n < len(waiting) {
			continue
		}
		if d.manifestIno != 0 {
			t.m.syscallChecks.Inc()
			if t.sys.CommittedSize(tl, d.manifestIno) < d.manifestOff {
				continue
			}
		}
		resolved = append(resolved, d)
	}
	if t.trace != nil {
		t.trace.Span(obs.TidTracker, "tracker", "tracker.poll", pollStart, tl.Now(),
			obs.KV{K: "deps", V: len(deps)}, obs.KV{K: "resolved", V: len(resolved)})
	}
	t.release(tl, resolved)
}

// ReleaseAll resolves every pending dependency at once. The engine
// calls it after replacing the MANIFEST with a synced snapshot of the
// live version whose tables it made durable first: recovery can no
// longer need a shadow, and the superseded manifest's inode, once
// unlinked, would never report the committed offset they wait for.
func (t *Tracker) ReleaseAll(tl *vclock.Timeline) {
	t.mu.Lock()
	deps := append([]*dep(nil), t.deps...)
	t.mu.Unlock()
	t.release(tl, deps)
}

// release drops the resolved dependencies and hands the predecessors no
// other dependency retains to the release hook.
func (t *Tracker) release(tl *vclock.Timeline, resolved []*dep) {
	if len(resolved) == 0 {
		return
	}

	t.mu.Lock()
	remaining := t.deps[:0]
	isResolved := make(map[*dep]bool, len(resolved))
	for _, d := range resolved {
		isResolved[d] = true
	}
	var free []uint64
	for _, d := range t.deps {
		if !isResolved[d] {
			remaining = append(remaining, d)
			continue
		}
		t.m.resolved.Inc()
		for _, p := range d.preds {
			t.protected[p]--
			if t.protected[p] <= 0 {
				delete(t.protected, p)
				free = append(free, p)
			}
		}
	}
	t.deps = remaining
	t.m.predsDeleted.Add(int64(len(free)))
	t.mu.Unlock()

	if t.trace != nil && len(free) > 0 {
		t.trace.Instant(obs.TidTracker, "tracker", "shadow.delete", tl.Now(),
			obs.KV{K: "files", V: free})
	}
	for _, p := range free {
		t.released(tl, p)
	}
}
