package ext4

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"noblsm/internal/obs"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

func newTestFS() *FS {
	return New(DefaultConfig(), ssd.New(ssd.PM883()))
}

// counter reads a counter of r by name; a name r does not hold fails
// the test, so a typo cannot read as 0.
func counter(t *testing.T, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Counters()[name]
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return v
}

func TestCreateWriteRead(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, err := fs.Create(tl, "a.sst")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello ordered world")
	if err := f.Append(tl, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read %q, want %q", buf, payload)
	}
	if f.Size() != int64(len(payload)) {
		t.Fatalf("size %d, want %d", f.Size(), len(payload))
	}
	if err := f.Close(tl); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(tl); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestReadAtBounds(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "f")
	f.Append(tl, []byte("0123456789"))
	buf := make([]byte, 4)
	n, err := f.ReadAt(tl, buf, 8)
	if err != io.EOF || n != 2 {
		t.Fatalf("short read: n=%d err=%v, want 2/EOF", n, err)
	}
	if string(buf[:n]) != "89" {
		t.Fatalf("tail read %q", buf[:n])
	}
	if _, err := f.ReadAt(tl, buf, 11); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if _, err := f.ReadAt(tl, buf, -1); err == nil {
		t.Fatal("negative-offset read succeeded")
	}
}

func TestOpenMissing(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	if _, err := fs.Open(tl, "nope"); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
	if _, err := fs.Size(tl, "nope"); err == nil {
		t.Fatal("sizing a missing file succeeded")
	}
	if err := fs.Remove(tl, "nope"); err == nil {
		t.Fatal("removing a missing file succeeded")
	}
}

func TestWriteFileReadFileListExists(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	if err := fs.WriteFile(tl, "b", []byte("bee")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(tl, "a", []byte("ay")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(tl, "a")
	if err != nil || string(got) != "ay" {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	if names := fs.List(tl); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v", names)
	}
	if !fs.Exists(tl, "a") || fs.Exists(tl, "c") {
		t.Fatal("Exists is wrong")
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "old", []byte("old-data"))
	fs.WriteFile(tl, "target", []byte("target-data"))
	if err := fs.Rename(tl, "old", "target"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists(tl, "old") {
		t.Fatal("old name survives rename")
	}
	got, _ := fs.ReadFile(tl, "target")
	if string(got) != "old-data" {
		t.Fatalf("target holds %q after rename", got)
	}
	if err := fs.Rename(tl, "ghost", "x"); err == nil {
		t.Fatal("renaming a missing file succeeded")
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "f", []byte("first"))
	f, err := fs.Create(tl, "f")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("recreated file has size %d", f.Size())
	}
}

// --- journaling semantics ---

func TestAsyncCommitMakesDataDurable(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "sst", []byte("kv pairs"))
	if got := fs.DurableSize("sst"); got != -1 {
		t.Fatalf("file durable (%d bytes) before any commit", got)
	}
	// Cross one commit interval: the async commit runs lazily on the
	// next filesystem operation.
	tl.Advance(6 * vclock.Second)
	fs.Exists(tl, "sst")
	if got := fs.DurableSize("sst"); got != 8 {
		t.Fatalf("durable size %d after async commit, want 8", got)
	}
	st := fs.Stats()
	if st.Syncs != 0 {
		t.Fatalf("async commit counted as sync: %+v", st)
	}
	if st.AsyncCommits != 1 {
		t.Fatalf("async commits = %d, want 1", st.AsyncCommits)
	}
}

func TestMultipleIntervalsRunMultipleCommits(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	for i := 0; i < 3; i++ {
		fs.WriteFile(tl, fmt.Sprintf("f%d", i), []byte("x"))
		tl.Advance(5 * vclock.Second)
	}
	fs.Exists(tl, "f0") // trigger catch-up
	if st := fs.Stats(); st.AsyncCommits != 3 {
		t.Fatalf("async commits = %d, want 3", st.AsyncCommits)
	}
}

func TestEmptyIntervalsCommitNothing(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	tl.Advance(100 * vclock.Second)
	fs.Exists(tl, "x")
	if st := fs.Stats(); st.AsyncCommits != 0 {
		t.Fatalf("empty transactions committed: %+v", st)
	}
}

func TestSyncMakesDurableImmediately(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "sst")
	f.Append(tl, []byte("data"))
	before := tl.Now()
	if err := f.Sync(tl); err != nil {
		t.Fatal(err)
	}
	if tl.Now() <= before {
		t.Fatal("fsync did not stall the caller")
	}
	if got := fs.DurableSize("sst"); got != 4 {
		t.Fatalf("durable size %d after fsync, want 4", got)
	}
	st := fs.Stats()
	if st.Syncs != 1 || st.BytesSynced != 4 {
		t.Fatalf("sync accounting wrong: %+v", st)
	}
	if st.SyncStall <= 0 {
		t.Fatalf("no sync stall recorded: %+v", st)
	}
}

func TestSyncIsSelective(t *testing.T) {
	// fsync under delayed allocation is a selective commit: the
	// target file becomes durable; unrelated dirty files stay in the
	// running transaction until the next asynchronous commit.
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "bystander", bytes.Repeat([]byte("b"), 1000))
	f, _ := fs.Create(tl, "synced")
	f.Append(tl, []byte("s"))
	f.Sync(tl)
	if got := fs.DurableSize("synced"); got != 1 {
		t.Fatalf("synced file durable size %d, want 1", got)
	}
	if got := fs.DurableSize("bystander"); got != -1 {
		t.Fatalf("bystander durable (size %d) from someone else's fsync", got)
	}
	st := fs.Stats()
	if st.BytesSynced != 1 {
		t.Fatalf("BytesSynced = %d, want 1 (the fsynced file only)", st.BytesSynced)
	}
	// The async commit picks the bystander up later.
	tl.Advance(5 * vclock.Second)
	fs.Exists(tl, "bystander")
	if got := fs.DurableSize("bystander"); got != 1000 {
		t.Fatalf("bystander not committed asynchronously (size %d)", got)
	}
}

func TestDirtyThresholdThrottlesWriter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DirtyThreshold = 1 << 20
	fs := New(cfg, ssd.New(ssd.PM883()))
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "big")
	f.Append(tl, make([]byte, 2<<20))
	st := fs.Stats()
	if st.ThrottleStall <= 0 {
		t.Fatalf("no throttle stall despite crossing threshold: %+v", st)
	}
	if st.BytesFlushed < 2<<20 {
		t.Fatalf("throttling did not drain the backlog: %+v", st)
	}
	if fs.DirtyBytes() != 0 {
		t.Fatalf("dirty bytes %d after forced writeback", fs.DirtyBytes())
	}
}

func TestAppendToReadOnlyHandleFails(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "f", []byte("x"))
	f, _ := fs.Open(tl, "f")
	if err := f.Append(tl, []byte("y")); err == nil {
		t.Fatal("append to read-only handle succeeded")
	}
}

// --- crash semantics ---

func TestCrashLosesUncommittedCreate(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "volatile", []byte("gone"))
	fs.Crash(tl.Now())
	if fs.Exists(tl, "volatile") {
		t.Fatal("uncommitted file survived the crash")
	}
}

func TestCrashKeepsCommittedData(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "kept", []byte("durable"))
	fs.ForceCommit(tl)
	fs.Crash(tl.Now())
	got, err := fs.ReadFile(tl, "kept")
	if err != nil || string(got) != "durable" {
		t.Fatalf("committed file after crash: %q, %v", got, err)
	}
}

func TestCrashTruncatesToCommittedSize(t *testing.T) {
	// The WAL-tail-loss behaviour: data appended after the last
	// commit of the inode is lost.
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "wal")
	f.Append(tl, []byte("committed-prefix|"))
	fs.ForceCommit(tl)
	f.Append(tl, []byte("lost-tail"))
	fs.Crash(tl.Now())
	got, _ := fs.ReadFile(tl, "wal")
	if string(got) != "committed-prefix|" {
		t.Fatalf("after crash WAL holds %q", got)
	}
}

func TestCrashResurrectsUncommittedRemove(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "backup", []byte("old sstable"))
	fs.ForceCommit(tl)
	fs.Remove(tl, "backup")
	if fs.Exists(tl, "backup") {
		t.Fatal("file visible after remove")
	}
	fs.Crash(tl.Now())
	got, err := fs.ReadFile(tl, "backup")
	if err != nil || string(got) != "old sstable" {
		t.Fatalf("uncommitted remove not rolled back: %q, %v", got, err)
	}
}

func TestCommittedRemoveStaysGone(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "obsolete", []byte("x"))
	fs.ForceCommit(tl)
	fs.Remove(tl, "obsolete")
	fs.ForceCommit(tl)
	fs.Crash(tl.Now())
	if fs.Exists(tl, "obsolete") {
		t.Fatal("committed remove rolled back")
	}
}

func TestCrashRollsBackUncommittedRename(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "MANIFEST-1", []byte("m1"))
	fs.ForceCommit(tl)
	fs.Rename(tl, "MANIFEST-1", "CURRENT")
	fs.Crash(tl.Now())
	if fs.Exists(tl, "CURRENT") {
		t.Fatal("uncommitted rename survived")
	}
	if !fs.Exists(tl, "MANIFEST-1") {
		t.Fatal("rename source lost")
	}
}

func TestCrashSeversHandles(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "f")
	f.Append(tl, []byte("x"))
	fs.ForceCommit(tl)
	fs.Crash(tl.Now())
	if err := f.Append(tl, []byte("y")); err == nil {
		t.Fatal("write through severed handle succeeded")
	}
	if _, err := f.ReadAt(tl, make([]byte, 1), 0); err == nil {
		t.Fatal("read through severed handle succeeded")
	}
}

func TestCrashClearsKernelTables(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "sst")
	f.Append(tl, []byte("x"))
	fs.CheckCommit(tl, f.Ino())
	fs.ForceCommit(tl)
	if !fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("inode not committed after forced commit")
	}
	fs.Crash(tl.Now())
	if fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("Committed Table survived the crash")
	}
	if fs.PendingCount() != 0 || fs.CommittedCount() != 0 {
		t.Fatal("kernel tables not cleared by crash")
	}
}

func TestColdReadAfterCrashChargesDevice(t *testing.T) {
	r := obs.NewRegistry()
	fs := NewObserved(DefaultConfig(), ssd.NewObserved(ssd.PM883(), r), r, nil)
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "f", make([]byte, 1<<20))
	fs.ForceCommit(tl)
	fs.Crash(tl.Now())
	reads0 := counter(t, r, "ssd.reads")
	if _, err := fs.ReadFile(tl, "f"); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, r, "ssd.reads"); got != reads0+1 {
		t.Fatalf("cold read issued %d device reads, want 1", got-reads0)
	}
	// Second read is warm.
	fs.ReadFile(tl, "f")
	if got := counter(t, r, "ssd.reads"); got != reads0+1 {
		t.Fatalf("warm read hit the device")
	}
}

// --- syscall semantics ---

func TestCheckCommitPendingToCommitted(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "sst-230")
	f.Append(tl, []byte("merged kv pairs"))
	fs.CheckCommit(tl, f.Ino())
	if fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("inode committed before any journal commit")
	}
	if fs.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", fs.PendingCount())
	}
	tl.Advance(5 * vclock.Second)
	if !fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("inode not committed after the commit interval")
	}
	if fs.PendingCount() != 0 || fs.CommittedCount() != 1 {
		t.Fatalf("tables: pending=%d committed=%d", fs.PendingCount(), fs.CommittedCount())
	}
}

func TestCheckCommitAlreadyDurable(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "sst")
	f.Append(tl, []byte("x"))
	fs.ForceCommit(tl)
	fs.CheckCommit(tl, f.Ino())
	if !fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("already-durable inode not short-circuited to Committed Table")
	}
}

func TestCheckCommitUnknownInode(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.CheckCommit(tl, 424242)
	if fs.PendingCount() != 0 {
		t.Fatal("unknown inode entered the Pending Table")
	}
	if fs.IsCommitted(tl, 424242) {
		t.Fatal("unknown inode reported committed")
	}
}

func TestRemoveErasesCommittedEntry(t *testing.T) {
	// Paper step 10: deleting a file erases its Committed-Table
	// entry, keeping the tables small and avoiding inode-reuse
	// confusion.
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "sst")
	f.Append(tl, []byte("x"))
	ino := f.Ino()
	fs.CheckCommit(tl, ino)
	fs.ForceCommit(tl)
	if !fs.IsCommitted(tl, ino) {
		t.Fatal("not committed")
	}
	fs.Remove(tl, "sst")
	fs.ForceCommit(tl)
	if fs.IsCommitted(tl, ino) {
		t.Fatal("Committed-Table entry survived file deletion")
	}
}

func TestInodeRedirtiedAfterCommitIsNotPrematurelyCommitted(t *testing.T) {
	// A successor SSTable still being appended when its inode first
	// commits must not satisfy check_commit at the partial size.
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "sst")
	f.Append(tl, []byte("first-half"))
	fs.ForceCommit(tl) // inode committed at partial size
	f.Append(tl, []byte("second-half"))
	fs.CheckCommit(tl, f.Ino()) // file now dirty again
	if fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("partially durable inode short-circuited to Committed Table")
	}
	tl.Advance(5 * vclock.Second)
	if !fs.IsCommitted(tl, f.Ino()) {
		t.Fatal("inode never committed at full size")
	}
	if got := fs.DurableSize("sst"); got != int64(len("first-halfsecond-half")) {
		t.Fatalf("durable size %d", got)
	}
}

// --- cost-model sanity ---

func TestBufferedWriteMuchCheaperThanSyncedWrite(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "buffered")
	t0 := tl.Now()
	f.Append(tl, make([]byte, 2<<20))
	buffered := tl.Now().Sub(t0)

	f2, _ := fs.Create(tl, "synced")
	t1 := tl.Now()
	f2.Append(tl, make([]byte, 2<<20))
	f2.Sync(tl)
	synced := tl.Now().Sub(t1)

	if synced < 5*buffered {
		t.Fatalf("synced write (%v) not far slower than buffered (%v)", synced, buffered)
	}
}

func TestCommittedSizeTracksDurablePrefix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommitInterval = 10 * vclock.Millisecond
	fs := New(cfg, ssd.New(ssd.PM883()))
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "MANIFEST-000001")
	if got := fs.CommittedSize(tl, f.Ino()); got != 0 {
		t.Fatalf("fresh file committed size %d", got)
	}
	f.Append(tl, make([]byte, 1000))
	fs.ForceCommit(tl)
	if got := fs.CommittedSize(tl, f.Ino()); got != 1000 {
		t.Fatalf("committed size %d after forced commit, want 1000", got)
	}
	f.Append(tl, make([]byte, 500))
	if got := fs.CommittedSize(tl, f.Ino()); got != 1000 {
		t.Fatalf("committed size %d advanced without a commit", got)
	}
	if got := fs.CommittedSize(tl, 999999); got != 0 {
		t.Fatalf("unknown inode committed size %d", got)
	}
}

func TestCommitCoversOnlyFlushedPrefix(t *testing.T) {
	// Delalloc semantics: a commit makes an inode durable only up to
	// what the flusher wrote back; the unflushed tail waits for the
	// next cycle.
	cfg := DefaultConfig()
	cfg.CommitInterval = 10 * vclock.Millisecond
	cfg.FlusherDelay = 10 * vclock.Millisecond
	fs := New(cfg, ssd.New(ssd.PM883()))
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "wal")
	f.Append(tl, make([]byte, 100)) // at t≈0
	tl.Advance(12 * vclock.Millisecond)
	fs.Exists(tl, "wal") // flusher writes the 100 bytes; no commit due yet at entry ordering
	f.Append(tl, make([]byte, 50))
	tl.Advance(12 * vclock.Millisecond)
	fs.Exists(tl, "wal") // second cycle
	d := fs.DurableSize("wal")
	if d != 100 && d != 150 {
		t.Fatalf("durable size %d, want a flushed-prefix value (100 or 150)", d)
	}
	fs.ForceCommit(tl)
	if got := fs.DurableSize("wal"); got != 150 {
		t.Fatalf("durable size %d after force commit", got)
	}
}

func TestFlusherRunsOffCriticalPath(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	fs.WriteFile(tl, "big", make([]byte, 32<<20))
	before := tl.Now()
	tl.Advance(10 * vclock.Second)
	fs.Exists(tl, "big") // flusher + commits run
	st := fs.Stats()
	if st.BytesFlushed < 32<<20 {
		t.Fatalf("flusher wrote %d bytes, want the full 32MB", st.BytesFlushed)
	}
	// The caller paid only its page-cache copy, not the device time.
	if tl.Now().Sub(before) > 11*vclock.Second {
		t.Fatal("caller charged for background writeback")
	}
}
