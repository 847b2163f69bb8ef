package vfs

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"

	"noblsm/internal/vclock"
)

// memFS is a minimal in-memory FS for exercising the fault plane
// without the full ext4 simulation.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	next  int64
}

type memData struct {
	ino  int64
	data []byte
}

func newMemFS() *memFS { return &memFS{files: map[string]*memData{}, next: 1} }

func (m *memFS) Create(tl *vclock.Timeline, name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := &memData{ino: m.next}
	m.next++
	m.files[name] = d
	return &memFile{fs: m, d: d}, nil
}

func (m *memFS) Open(tl *vclock.Timeline, name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return nil, ErrNotExist
	}
	return &memFile{fs: m, d: d}, nil
}

func (m *memFS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return nil, ErrNotExist
	}
	return append([]byte(nil), d.data...), nil
}

func (m *memFS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memData{ino: m.next, data: append([]byte(nil), data...)}
	m.next++
	return nil
}

func (m *memFS) Remove(tl *vclock.Timeline, name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return ErrNotExist
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldName]
	if !ok {
		return ErrNotExist
	}
	delete(m.files, oldName)
	m.files[newName] = d
	return nil
}

func (m *memFS) Exists(tl *vclock.Timeline, name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	return ok
}

func (m *memFS) List(tl *vclock.Timeline) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (m *memFS) Size(tl *vclock.Timeline, name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return 0, ErrNotExist
	}
	return int64(len(d.data)), nil
}

func (m *memFS) SyncDir(tl *vclock.Timeline) error { return nil }

type memFile struct {
	fs *memFS
	d  *memData
}

func (f *memFile) Append(tl *vclock.Timeline, p []byte) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.d.data = append(f.d.data, p...)
	return nil
}

func (f *memFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync(tl *vclock.Timeline) error  { return nil }
func (f *memFile) Close(tl *vclock.Timeline) error { return nil }
func (f *memFile) Size() int64                     { return int64(len(f.d.data)) }
func (f *memFile) Ino() int64                      { return f.d.ino }

// memSyscallFS adds the NobLSM syscall surface to memFS so the
// forwarding path can be tested.
type memSyscallFS struct {
	*memFS
	committed map[int64]bool
}

func (m *memSyscallFS) CheckCommit(tl *vclock.Timeline, inos ...int64) {
	for _, ino := range inos {
		m.committed[ino] = true
	}
}
func (m *memSyscallFS) IsCommitted(tl *vclock.Timeline, ino int64) bool { return m.committed[ino] }
func (m *memSyscallFS) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	return 0
}

func TestClassify(t *testing.T) {
	cases := map[string]FileClass{
		"000007.log":         ClassWAL,
		"000042.ldb":         ClassTable,
		"MANIFEST-000003":    ClassManifest,
		"CURRENT":            ClassCurrent,
		"LOCK":               ClassOther,
		"000042.ldb.corrupt": ClassOther,
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTriggerOneShot(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, faults := NewFaultFS(newMemFS(), 1)
	f, err := fs.Create(tl, "000001.log")
	if err != nil {
		t.Fatal(err)
	}
	faults.Trigger(ClassWAL, OpWrite, KindError, true)
	err = f.Append(tl, []byte("hello"))
	if err == nil {
		t.Fatal("expected injected error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error %v not ErrInjected", err)
	}
	if !IsTransient(err) {
		t.Fatalf("error %v should be transient", err)
	}
	// One-shot: the rule disarmed itself.
	if err := f.Append(tl, []byte("hello")); err != nil {
		t.Fatalf("second append: %v", err)
	}
	if got := f.Size(); got != 5 {
		t.Fatalf("size = %d, want 5 (failed append must land nothing)", got)
	}
	st := faults.Stats()
	if st.Injected != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want Injected=1 Errors=1", st)
	}
}

func TestPermanentNotTransient(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, faults := NewFaultFS(newMemFS(), 1)
	f, _ := fs.Create(tl, "000001.ldb")
	faults.Trigger(ClassTable, OpSync, KindError, false)
	err := f.Sync(tl)
	if err == nil || !errors.Is(err, ErrInjected) || IsTransient(err) {
		t.Fatalf("want permanent injected error, got %v", err)
	}
}

func TestClassAndOpFiltering(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, faults := NewFaultFS(newMemFS(), 1)
	wal, _ := fs.Create(tl, "000001.log")
	tbl, _ := fs.Create(tl, "000002.ldb")
	faults.Trigger(ClassWAL, OpWrite, KindError, true)
	if err := tbl.Append(tl, []byte("x")); err != nil {
		t.Fatalf("table append must not match WAL rule: %v", err)
	}
	if err := wal.Sync(tl); err != nil {
		t.Fatalf("sync must not match write rule: %v", err)
	}
	if err := wal.Append(tl, []byte("x")); err == nil {
		t.Fatal("WAL append should have failed")
	}
}

func TestShortWriteLandsPrefix(t *testing.T) {
	tl := vclock.NewTimeline(0)
	inner := newMemFS()
	fs, faults := NewFaultFS(inner, 7)
	f, _ := fs.Create(tl, "000001.log")
	payload := bytes.Repeat([]byte{0xAA}, 4096)
	faults.Trigger(ClassWAL, OpWrite, KindShortWrite, false)
	err := f.Append(tl, payload)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	got, _ := inner.ReadFile(tl, "000001.log")
	if len(got) >= len(payload) {
		t.Fatalf("short write landed %d bytes, want a strict prefix of %d", len(got), len(payload))
	}
	if !bytes.Equal(got, payload[:len(got)]) {
		t.Fatal("short write landed non-prefix bytes")
	}
}

func TestTornWriteCorruptsTailSector(t *testing.T) {
	tl := vclock.NewTimeline(0)
	inner := newMemFS()
	fs, faults := NewFaultFS(inner, 11)
	f, _ := fs.Create(tl, "000001.log")
	payload := bytes.Repeat([]byte{0x55}, 8192)
	faults.Trigger(ClassWAL, OpWrite, KindTornWrite, false)
	err := f.Append(tl, payload)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	got, _ := inner.ReadFile(tl, "000001.log")
	if len(got) == 0 || len(got) > len(payload) {
		t.Fatalf("torn write landed %d bytes, want 1..%d", len(got), len(payload))
	}
	// Exactly one bit differs, and it is within the final sector of
	// the landed prefix.
	diffAt := -1
	for i := range got {
		if got[i] != payload[i] {
			if diffAt >= 0 {
				t.Fatalf("more than one corrupted byte (%d and %d)", diffAt, i)
			}
			diffAt = i
		}
	}
	if diffAt < 0 {
		t.Fatal("torn write landed an intact prefix (want a corrupted sector)")
	}
	if diffAt < len(got)-tornSector {
		t.Fatalf("corruption at %d outside final %d-byte sector of %d-byte prefix", diffAt, tornSector, len(got))
	}
}

func TestBitFlipIsSilent(t *testing.T) {
	tl := vclock.NewTimeline(0)
	inner := newMemFS()
	fs, faults := NewFaultFS(inner, 13)
	f, _ := fs.Create(tl, "000001.ldb")
	payload := bytes.Repeat([]byte{0xFF}, 1024)
	faults.Trigger(ClassTable, OpWrite, KindBitFlip, false)
	if err := f.Append(tl, payload); err != nil {
		t.Fatalf("bit-flip must report success, got %v", err)
	}
	got, _ := inner.ReadFile(tl, "000001.ldb")
	if len(got) != len(payload) {
		t.Fatalf("bit-flip landed %d bytes, want %d", len(got), len(payload))
	}
	diffs := 0
	for i := range got {
		if got[i] != payload[i] {
			diffs++
		}
	}
	if diffs != 1 {
		t.Fatalf("bit-flip corrupted %d bytes, want exactly 1", diffs)
	}
}

func TestReadBitFlipLeavesFileIntact(t *testing.T) {
	tl := vclock.NewTimeline(0)
	inner := newMemFS()
	fs, faults := NewFaultFS(inner, 17)
	f, _ := fs.Create(tl, "000001.ldb")
	payload := bytes.Repeat([]byte{0x00}, 256)
	if err := f.Append(tl, payload); err != nil {
		t.Fatal(err)
	}
	faults.Trigger(ClassTable, OpRead, KindReadBitFlip, false)
	buf := make([]byte, 256)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatalf("read-bit-flip must report success, got %v", err)
	}
	if bytes.Equal(buf, payload) {
		t.Fatal("read buffer not corrupted")
	}
	// The file itself is intact: a second read returns clean bytes.
	buf2 := make([]byte, 256)
	if _, err := f.ReadAt(tl, buf2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2, payload) {
		t.Fatal("underlying file was corrupted by a read fault")
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) FaultStats {
		tl := vclock.NewTimeline(0)
		fs, faults := NewFaultFS(newMemFS(), seed)
		faults.AddRule(Rule{Class: ClassTable, Op: OpRead, Kind: KindError, Transient: true, P: 0.3})
		f, _ := fs.Create(tl, "000001.ldb")
		_ = f.Append(tl, bytes.Repeat([]byte{1}, 64))
		buf := make([]byte, 8)
		for i := 0; i < 200; i++ {
			_, _ = f.ReadAt(tl, buf, 0)
		}
		return faults.Stats()
	}
	a, b := run(99), run(99)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Injected == 0 || a.Injected == 200 {
		t.Fatalf("p=0.3 injected %d/200 — rule not probabilistic", a.Injected)
	}
}

func TestCountCap(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, faults := NewFaultFS(newMemFS(), 3)
	faults.AddRule(Rule{Class: ClassWAL, Op: OpWrite, Kind: KindError, Transient: true, Count: 3})
	f, _ := fs.Create(tl, "000001.log")
	fails := 0
	for i := 0; i < 10; i++ {
		if err := f.Append(tl, []byte("x")); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("count=3 rule fired %d times", fails)
	}
}

func TestSetEnabledPausesInjection(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, faults := NewFaultFS(newMemFS(), 3)
	faults.AddRule(Rule{Kind: KindError})
	faults.SetEnabled(false)
	if _, err := fs.Create(tl, "000001.log"); err != nil {
		t.Fatalf("disabled plane injected: %v", err)
	}
	faults.SetEnabled(true)
	if _, err := fs.Create(tl, "000002.log"); err == nil {
		t.Fatal("re-enabled plane did not inject")
	}
}

func TestMatchRestrictsRule(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, faults := NewFaultFS(newMemFS(), 3)
	faults.AddRule(Rule{Op: OpCreate, Kind: KindError, Match: func(name string) bool { return name == "000002.ldb" }})
	if _, err := fs.Create(tl, "000001.ldb"); err != nil {
		t.Fatalf("unmatched name injected: %v", err)
	}
	if _, err := fs.Create(tl, "000002.ldb"); err == nil {
		t.Fatal("matched name did not inject")
	}
}

func TestSyscallForwarding(t *testing.T) {
	tl := vclock.NewTimeline(0)
	inner := &memSyscallFS{memFS: newMemFS(), committed: map[int64]bool{}}
	fs, _ := NewFaultFS(inner, 1)
	sys, ok := fs.(interface {
		CheckCommit(tl *vclock.Timeline, inos ...int64)
		IsCommitted(tl *vclock.Timeline, ino int64) bool
		CommittedSize(tl *vclock.Timeline, ino int64) int64
	})
	if !ok {
		t.Fatal("FaultFS over a syscall FS must forward the syscall surface")
	}
	sys.CheckCommit(tl, 7)
	if !sys.IsCommitted(tl, 7) {
		t.Fatal("CheckCommit not forwarded")
	}

	// A plain FS must NOT grow a syscall surface through the wrapper.
	plain, _ := NewFaultFS(newMemFS(), 1)
	if _, ok := plain.(interface {
		IsCommitted(tl *vclock.Timeline, ino int64) bool
	}); ok {
		t.Fatal("FaultFS over a plain FS must not claim the syscall surface")
	}
}

func TestParseFaultSpec(t *testing.T) {
	rules, err := ParseFaultSpec("class=table,op=read,kind=error,transient,p=0.25,count=5; class=wal,op=write,kind=torn")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	r := rules[0]
	if r.Class != ClassTable || r.Op != OpRead || r.Kind != KindError || !r.Transient || r.P != 0.25 || r.Count != 5 {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = rules[1]
	if r.Class != ClassWAL || r.Op != OpWrite || r.Kind != KindTornWrite || r.Transient || r.P != 1.0 {
		t.Fatalf("rule 1 = %+v", r)
	}
	for _, bad := range []string{
		"class=nope", "op=nope", "kind=nope", "p=2", "p=x", "count=-1", "transient=yes", "bogus=1",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

func TestNoRulesNoOverheadPath(t *testing.T) {
	tl := vclock.NewTimeline(0)
	fs, _ := NewFaultFS(newMemFS(), 1)
	f, err := fs.Create(tl, "a.ldb")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(tl, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(tl); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Close(tl); err != nil {
		t.Fatal(err)
	}
}
