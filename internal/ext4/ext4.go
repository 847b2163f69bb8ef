// Package ext4 is a userspace simulation of the ext4 filesystem in its
// default data=ordered journaling mode with delayed allocation,
// faithful to the contract the NobLSM paper builds on:
//
//   - buffered writes land in the page cache; a background flusher
//     thread streams dirty data to the device continuously (after a
//     short ageing delay), off every caller's critical path;
//   - JBD2 batches metadata changes (inodes, namespace operations)
//     into a running transaction and commits transactions serially,
//     every commit interval (5 s by default). A commit makes each
//     inode it carries durable up to the prefix its data writeback has
//     reached (writeback is what puts a dirty inode into a transaction) —
//     so a committed inode implies durable data (the ordered-mode
//     guarantee), and an append-only file's crash-surviving length is
//     whatever the last commit covered, which is how an unsynced
//     write-ahead log loses its tail;
//   - fsync writes back the target file's remaining dirty data and
//     journals its inode behind a device flush barrier, stalling the
//     caller; with delayed allocation it does not write back other
//     files' dirty pages (their durability waits for the periodic
//     commit);
//   - on a crash (power cut) only journal-committed state survives:
//     uncommitted creations vanish, uncommitted deletions and renames
//     resurrect, file contents roll back to their committed prefixes,
//     and open handles are severed.
//
// The package also carries the paper's kernel extension: the Pending
// and Committed inode tables plus the syscalls CheckCommit and
// IsCommitted (Section 4.2 of the paper) — an inode moves to the
// Committed Table when a commit covers its full contents — and
// CommittedSize, the companion query for append-only files (the
// MANIFEST) whose durable prefix gates log and predecessor deletion.
// The tables live in (volatile) kernel memory and are cleared by a
// crash.
//
// All costs — page-cache copies, device transfers, journal barriers —
// are charged in virtual time (internal/vclock) against the caller's
// timeline, the journal timeline, or the flusher timeline, with the
// shared ssd.Device providing queueing and barrier semantics.
package ext4

import (
	"fmt"
	"sort"
	"sync"

	"noblsm/internal/obs"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// Config holds the tunables of the filesystem simulation.
type Config struct {
	// CommitInterval is the period of asynchronous journal commits
	// (kjournald wakeup). The kernel default is 5 seconds.
	CommitInterval vclock.Duration
	// DirtyThreshold is the number of dirty page-cache bytes that
	// forces an early commit with writer throttling, modeling the
	// kernel's dirty_ratio behaviour (10% of RAM by default — the
	// paper's testbed has 2 TB of DRAM, so the default here is large
	// enough that steady-state benchmarks never hit it).
	DirtyThreshold int64
	// PageCacheLatency is the fixed syscall + copy setup cost of a
	// buffered read or write.
	PageCacheLatency vclock.Duration
	// PageCacheBandwidth is the memcpy rate into the page cache in
	// bytes per second.
	PageCacheBandwidth int64
	// MetadataBlock is the journal descriptor+inode block size
	// charged per committed inode.
	MetadataBlock int64
	// FlusherDelay is how long dirty data ages before the background
	// flusher writes it back (the kernel's dirty_writeback cadence).
	// Zero selects one commit interval, approximating the two-stage
	// write-then-commit pipeline.
	FlusherDelay vclock.Duration
}

// DefaultConfig mirrors a stock ext4 mount on a large-memory host.
func DefaultConfig() Config {
	return Config{
		CommitInterval:     5 * vclock.Second,
		DirtyThreshold:     64 << 30, // effectively unbounded for our scales
		PageCacheLatency:   700 * vclock.Nanosecond,
		PageCacheBandwidth: 5 << 30, // ~5 GB/s memcpy
		MetadataBlock:      4096,
	}
}

// Stats are filesystem-level counters; Syncs and BytesSynced are the
// quantities of the paper's Table 1.
type Stats struct {
	// Syncs counts fsync/fdatasync and directory-sync calls.
	Syncs int64
	// BytesSynced is data written back to the device as a direct
	// consequence of synchronous commits (the paper's "size of data
	// synced").
	BytesSynced int64
	// BytesFlushed is data written back by the continuous background
	// flusher (off every caller's critical path).
	BytesFlushed int64
	// AsyncCommits counts asynchronous (timer/threshold) commits.
	AsyncCommits int64
	// BytesAsyncCommitted is data written back by async commits.
	BytesAsyncCommitted int64
	// JournalBytes is metadata written to the journal by asynchronous,
	// directory-sync and fsync commits (descriptor and inode blocks),
	// so device bytes written = BytesFlushed + BytesSynced +
	// JournalBytes; JournalInodes counts the inodes those commits
	// carried.
	JournalBytes  int64
	JournalInodes int64
	// SyncStall is the total virtual time callers spent blocked in
	// fsync.
	SyncStall vclock.Duration
	// ThrottleStall is time writers spent blocked on the dirty
	// threshold.
	ThrottleStall vclock.Duration
	// BarrierStall is time other threads spent blocked behind a
	// synchronous commit's ordering barrier (the paper's "sync ...
	// enforces a barrier to stall subsequent I/O operations").
	BarrierStall vclock.Duration
}

type inode struct {
	ino  int64
	data extents
	// persisted is the prefix of data already written back to the
	// device (ordered-mode data writeback).
	persisted int64
	// durableSize is the file length recorded by the last committed
	// transaction containing this inode; -1 if never committed.
	durableSize int64
	// resident reports whether the contents are wholly in the page
	// cache — true for every file since its creation (writes populate
	// the cache), cleared by a crash. While false, pagedIn/pagesIn
	// track per-page refill; see pagecache.go.
	resident bool
	// pagedIn is the per-page residency bitset, non-nil only between
	// a crash and the file becoming fully resident again.
	pagedIn []uint64
	// pagesIn counts set bits in pagedIn.
	pagesIn int64
	// queued is true while the inode waits in the flusher's queue.
	queued bool
	// nlink counts the names referring to this inode in the cached
	// namespace (hard links). Zero means fully unlinked: dirty pages
	// are dropped instead of written back, and the inode is freed once
	// the removal commits.
	nlink int
	// inRunning is true while the inode is part of the running
	// transaction.
	inRunning bool
	// handles counts open (not yet Closed) file handles, including
	// crash-severed ones. Page-cache chunks are recycled only when an
	// inode is both gone from fs.inodes and handle-free.
	handles int
}

func (in *inode) dirty() int64 { return in.data.Len() - in.persisted }

type opKind int

const (
	opCreate opKind = iota
	opRemove
	opRename
)

type nsOp struct {
	kind    opKind
	name    string
	newName string
	ino     int64
}

// txn is a JBD2 transaction: the set of metadata-dirty inodes plus the
// namespace operations performed while it was running. An inode joins
// only when its on-disk metadata changes: a namespace operation
// (create, unlink, link, rename) or data writeback advancing its
// persisted prefix. A buffered append does not: under delayed
// allocation it has no blocks yet, so there is nothing to journal
// until the flusher or an fsync writes it back — and a commit
// therefore costs what changed since the last one, however many
// dirty files are waiting for the flusher.
type txn struct {
	inodes map[int64]*inode
	ops    []nsOp
}

func newTxn() *txn { return &txn{inodes: make(map[int64]*inode)} }

func (t *txn) empty() bool { return len(t.inodes) == 0 && len(t.ops) == 0 }

func (t *txn) add(in *inode) {
	if !in.inRunning {
		in.inRunning = true
		t.inodes[in.ino] = in
	}
}

// FS is the simulated filesystem. It implements vfs.FS.
type FS struct {
	mu  sync.Mutex
	cfg Config
	dev *ssd.Device

	// wb is the journal (jbd2) timeline; flusher is the background
	// page-writeback thread, which continuously streams dirty data
	// to the device independently of commits.
	wb      *vclock.Timeline
	flusher *vclock.Timeline
	// flushQueue holds dirty inodes awaiting background writeback,
	// oldest first, with the time they were dirtied.
	flushQueue []flushEntry

	nextIno int64
	gen     int64 // bumped on crash; invalidates open handles

	// names is the cached (current) namespace; inodes holds every
	// live inode including unlinked ones whose removal has not yet
	// committed (needed for crash resurrection).
	names  map[string]*inode
	inodes map[int64]*inode
	// durableNames is the namespace as of the last committed
	// transaction.
	durableNames map[string]int64

	running    *txn
	lastCommit vclock.Time
	dirtyBytes int64
	// [stallFrom, stallUntil) is the locked commit section of the
	// latest synchronous commit: the journal descriptor/commit-record
	// write and its flush barrier. Operations entering the filesystem
	// inside this window wait for the barrier — the "sync enforces a
	// barrier to stall subsequent I/O operations" behaviour the paper
	// measures. The data-writeback phase of the commit does not stall
	// other threads (they only feel it through device queueing), and
	// asynchronous commits never stall anyone.
	stallFrom  vclock.Time
	stallUntil vclock.Time

	// The paper's two kernel tables (Section 4.2). Volatile: cleared
	// by Crash.
	pending   map[int64]bool
	committed map[int64]bool

	m fsMetrics
	// pc holds every file's contents and the free chunks between them.
	pc pageCache
	// trace receives journal/syscall events; nil disables tracing at
	// the cost of a single pointer check per site.
	trace *obs.Tracer

	// commitHook, when set, is invoked at the end of every journal
	// commit that changes durable state, with the full post-commit
	// durable image (vfs.CommitNotifier — the CrashFS subscription).
	// It runs under fs.mu and must not call back into the filesystem.
	// Nil costs one pointer check per commit, keeping the default
	// path's virtual timings untouched.
	commitHook func(vfs.CommitRecord)
	commitSeq  int
}

// fsMetrics are the filesystem counters, resolved once from a
// registry under the "ext4." prefix; Stats() is a view over them.
type fsMetrics struct {
	syncs               *obs.Counter
	bytesSynced         *obs.Counter
	bytesFlushed        *obs.Counter
	asyncCommits        *obs.Counter
	bytesAsyncCommitted *obs.Counter
	journalBytes        *obs.Counter
	journalInodes       *obs.Counter
	syncStallNs         *obs.Counter
	throttleStallNs     *obs.Counter
	barrierStallNs      *obs.Counter
}

func newFSMetrics(r *obs.Registry) fsMetrics {
	return fsMetrics{
		syncs:               r.Counter("ext4.syncs"),
		bytesSynced:         r.Counter("ext4.bytes_synced"),
		bytesFlushed:        r.Counter("ext4.bytes_flushed"),
		asyncCommits:        r.Counter("ext4.async_commits"),
		bytesAsyncCommitted: r.Counter("ext4.bytes_async_committed"),
		journalBytes:        r.Counter("ext4.journal_bytes"),
		journalInodes:       r.Counter("ext4.journal_inodes"),
		syncStallNs:         r.Counter("ext4.stall.sync_ns"),
		throttleStallNs:     r.Counter("ext4.stall.throttle_ns"),
		barrierStallNs:      r.Counter("ext4.stall.barrier_ns"),
	}
}

var _ vfs.FS = (*FS)(nil)

// New mounts a fresh, empty filesystem over dev, publishing counters
// into a private registry.
func New(cfg Config, dev *ssd.Device) *FS { return NewObserved(cfg, dev, nil, nil) }

// NewObserved mounts a filesystem whose counters register into r (nil:
// a private registry) and whose journal/syscall events go to trace
// (nil: no tracing).
func NewObserved(cfg Config, dev *ssd.Device, r *obs.Registry, trace *obs.Tracer) *FS {
	if cfg.CommitInterval <= 0 {
		panic("ext4: commit interval must be positive")
	}
	if r == nil {
		r = obs.NewRegistry()
	}
	return &FS{
		cfg:          cfg,
		dev:          dev,
		wb:           vclock.NewTimeline(0),
		flusher:      vclock.NewTimeline(0),
		nextIno:      100, // resemble real inode numbers; 0 stays invalid
		names:        make(map[string]*inode),
		inodes:       make(map[int64]*inode),
		durableNames: make(map[string]int64),
		running:      newTxn(),
		pending:      make(map[int64]bool),
		committed:    make(map[int64]bool),
		m:            newFSMetrics(r),
		pc:           newPageCache(r),
		trace:        trace,
	}
}

// Device returns the underlying device (for counter snapshots).
func (fs *FS) Device() *ssd.Device { return fs.dev }

// Stats returns a snapshot of the filesystem counters — a view over
// the registry metrics.
func (fs *FS) Stats() Stats {
	return Stats{
		Syncs:               fs.m.syncs.Value(),
		BytesSynced:         fs.m.bytesSynced.Value(),
		BytesFlushed:        fs.m.bytesFlushed.Value(),
		AsyncCommits:        fs.m.asyncCommits.Value(),
		BytesAsyncCommitted: fs.m.bytesAsyncCommitted.Value(),
		JournalBytes:        fs.m.journalBytes.Value(),
		JournalInodes:       fs.m.journalInodes.Value(),
		SyncStall:           fs.m.syncStallNs.Duration(),
		ThrottleStall:       fs.m.throttleStallNs.Duration(),
		BarrierStall:        fs.m.barrierStallNs.Duration(),
	}
}

// DirtyBytes reports the current dirty page-cache volume.
func (fs *FS) DirtyBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dirtyBytes
}

// enter is called at every application-visible entry point: it makes
// the caller wait out any in-flight synchronous commit barrier and
// then runs due asynchronous commits. Callers must hold fs.mu.
func (fs *FS) enter(tl *vclock.Timeline) {
	if tl.Now() >= fs.stallFrom {
		if d := tl.WaitUntil(fs.stallUntil); d > 0 {
			fs.m.barrierStallNs.AddDuration(d)
		}
	}
	fs.flushLocked(tl.Now())
	fs.catchUp(tl.Now())
}

// flushLocked advances the background flusher up to now: dirty inodes
// are written back continuously on the flusher's own timeline
// (contending with everyone else only through the device queue). With
// delayed allocation this is the only path that persists data between
// fsyncs; journal commits then make whatever has been written back
// durable. Callers must hold fs.mu.
func (fs *FS) flushLocked(now vclock.Time) {
	delay := fs.flusherDelay()
	// Entries are enqueued by callers on different timelines, so the
	// queue is not strictly time-ordered; scan past not-yet-aged
	// entries instead of stopping at them, or an aged entry can be
	// starved behind a future-dated one.
	// Fast path: find the first entry this pass would consume. In the
	// common case — flusher already caught up to now, or nothing has
	// aged past the delay — the queue is left exactly as it is, and
	// re-copying it (the old behaviour) dominated wall-clock profiles
	// of compaction-heavy runs. The flusher timeline only advances
	// when an entry is written back, so until the first consumed entry
	// the checks below see the same values the processing loop would.
	first := 0
	for ; first < len(fs.flushQueue); first++ {
		if fs.flusher.Now() >= now {
			return
		}
		if fs.flushQueue[first].at.Add(delay) <= now {
			break
		}
	}
	if first == len(fs.flushQueue) {
		return
	}
	kept := fs.flushQueue[:first]
	for i := first; i < len(fs.flushQueue); i++ {
		e := fs.flushQueue[i]
		if fs.flusher.Now() >= now {
			kept = append(kept, fs.flushQueue[i:]...)
			break
		}
		if e.at.Add(delay) > now {
			kept = append(kept, e)
			continue
		}
		e.in.queued = false
		d := e.in.dirty()
		if d <= 0 {
			continue
		}
		if e.in.nlink == 0 {
			// Dirty pages of an unlinked file are dropped, not
			// written back; keep the global accounting honest.
			fs.dirtyBytes -= d
			e.in.persisted = e.in.data.Len()
			continue
		}
		start := vclock.Max(fs.flusher.Now(), e.at.Add(delay))
		done := fs.dev.Write(start, d)
		fs.flusher.WaitUntil(done)
		fs.writtenBackLocked(e.in, d)
		if fs.trace != nil {
			fs.trace.Span(obs.TidFlusher, "writeback", "writeback.flush", start, done,
				obs.KV{K: "ino", V: e.in.ino}, obs.KV{K: "bytes", V: d})
		}
	}
	fs.flushQueue = kept
}

// writtenBackLocked records that the flusher wrote in's d dirty bytes
// to the device. Writeback allocates the blocks, so this is where the
// on-disk inode changes and joins the running transaction; the commit
// that carries it makes the new prefix durable. Callers must hold
// fs.mu.
func (fs *FS) writtenBackLocked(in *inode, d int64) {
	in.persisted = in.data.Len()
	fs.dirtyBytes -= d
	fs.m.bytesFlushed.Add(d)
	fs.running.add(in)
}

// markDirty queues an inode for background writeback. Callers must
// hold fs.mu.
func (fs *FS) markDirty(in *inode, at vclock.Time) {
	if !in.queued {
		in.queued = true
		fs.flushQueue = append(fs.flushQueue, flushEntry{in, at})
	}
}

// flushEntry is one flusher work item.
type flushEntry struct {
	in *inode
	at vclock.Time
}

// flusherDelay resolves the configured writeback ageing delay.
func (fs *FS) flusherDelay() vclock.Duration {
	if fs.cfg.FlusherDelay > 0 {
		return fs.cfg.FlusherDelay
	}
	return fs.cfg.CommitInterval
}

// charge applies the page-cache cost for n bytes to tl.
func (fs *FS) charge(tl *vclock.Timeline, n int64) {
	d := fs.cfg.PageCacheLatency
	if n > 0 {
		d += vclock.Duration(n * int64(vclock.Second) / fs.cfg.PageCacheBandwidth)
	}
	tl.Advance(d)
}

// Create implements vfs.FS. An existing file is replaced, as POSIX
// O_CREAT|O_TRUNC does.
func (fs *FS) Create(tl *vclock.Timeline, name string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	if old, ok := fs.names[name]; ok {
		fs.unlinkLocked(name, old)
	}
	in := &inode{
		ino:         fs.nextIno,
		durableSize: -1,
		resident:    true,
		nlink:       1,
		handles:     1,
	}
	fs.nextIno++
	fs.names[name] = in
	fs.inodes[in.ino] = in
	fs.running.add(in)
	fs.running.ops = append(fs.running.ops, nsOp{kind: opCreate, name: name, ino: in.ino})
	return &file{fs: fs, in: in, gen: fs.gen, writable: true}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	in, ok := fs.names[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	in.handles++
	return &file{fs: fs, in: in, gen: fs.gen}, nil
}

// ReadFile implements vfs.FS.
func (fs *FS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	f, err := fs.Open(tl, name)
	if err != nil {
		return nil, err
	}
	defer f.Close(tl)
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(tl, buf, 0); err != nil && len(buf) > 0 {
		return nil, err
	}
	return buf, nil
}

// WriteFile implements vfs.FS.
func (fs *FS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	f, err := fs.Create(tl, name)
	if err != nil {
		return err
	}
	if err := f.Append(tl, data); err != nil {
		f.Close(tl)
		return err
	}
	return f.Close(tl)
}

// Remove implements vfs.FS.
func (fs *FS) Remove(tl *vclock.Timeline, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	in, ok := fs.names[name]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	fs.unlinkLocked(name, in)
	return nil
}

// unlinkLocked records the namespace removal in the running
// transaction and drops the cached name. The inode object survives
// until the removal commits, because a crash before that resurrects
// the file.
func (fs *FS) unlinkLocked(name string, in *inode) {
	delete(fs.names, name)
	in.nlink--
	if in.nlink == 0 {
		// Dirty pages of a fully unlinked file are dropped, not
		// written back. While other hard links remain, the data stays
		// live and keeps flushing normally.
		fs.dirtyBytes -= in.dirty()
		in.persisted = in.data.Len()
	}
	fs.running.add(in)
	fs.running.ops = append(fs.running.ops, nsOp{kind: opRemove, name: name, ino: in.ino})
}

// Link adds newName as a second directory entry for oldName's inode —
// a POSIX hard link. Both names share the inode and its data extents;
// no data is copied and no writeback is triggered, so linking a large
// file costs only the metadata operation (this is what makes
// checkpoints zero-copy). An existing newName is replaced, as link(2)
// via rename-over would do. Durability of the new name follows the
// usual journal rules: it survives a crash only once the transaction
// carrying the namespace op commits.
func (fs *FS) Link(tl *vclock.Timeline, oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	in, ok := fs.names[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, oldName)
	}
	if tgt, ok := fs.names[newName]; ok {
		if tgt == in {
			return nil
		}
		fs.unlinkLocked(newName, tgt)
	}
	fs.names[newName] = in
	in.nlink++
	fs.running.add(in)
	fs.running.ops = append(fs.running.ops, nsOp{kind: opCreate, name: newName, ino: in.ino})
	return nil
}

// Rename implements vfs.FS.
func (fs *FS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	in, ok := fs.names[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, oldName)
	}
	if tgt, ok := fs.names[newName]; ok {
		fs.unlinkLocked(newName, tgt)
	}
	delete(fs.names, oldName)
	fs.names[newName] = in
	fs.running.add(in)
	fs.running.ops = append(fs.running.ops, nsOp{kind: opRename, name: oldName, newName: newName, ino: in.ino})
	return nil
}

// Exists implements vfs.FS.
func (fs *FS) Exists(tl *vclock.Timeline, name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	_, ok := fs.names[name]
	return ok
}

// List implements vfs.FS. Names are returned sorted for determinism.
func (fs *FS) List(tl *vclock.Timeline) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.charge(tl, 0)
	out := make([]string, 0, len(fs.names))
	for name := range fs.names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Size implements vfs.FS.
func (fs *FS) Size(tl *vclock.Timeline, name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	in, ok := fs.names[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	return in.data.Len(), nil
}

// SyncDir implements vfs.FS: it synchronously commits the running
// transaction, persisting pending namespace operations, and counts as
// one sync (LevelDB fsyncs the directory after pointing CURRENT at a
// new manifest).
func (fs *FS) SyncDir(tl *vclock.Timeline) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enter(tl)
	fs.m.syncs.Inc()
	start := tl.Now()
	done := fs.commitLocked(start, true)
	stall := tl.WaitUntil(done)
	fs.m.syncStallNs.AddDuration(stall)
	if fs.trace != nil && stall > 0 {
		fs.trace.Span(obs.TidForeground, "stall", "stall.fsync", start, tl.Now(), obs.KV{K: "cause", V: "fsync"}, obs.KV{K: "target", V: "dir"})
	}
	return nil
}
