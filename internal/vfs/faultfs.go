package vfs

// FaultFS is a deterministic fault-injection wrapper around any vfs.FS.
// It injects transient and permanent I/O errors, short writes, torn
// multi-block appends, silent bit-flips and sync failures on any
// path-matched file class (WAL, SSTable, MANIFEST, CURRENT), driven by
// a seeded PRNG (probabilistic rules) or an explicit trigger API
// (one-shot rules). Injection work — the bytes a short or torn write
// actually lands — is charged to the caller's virtual timeline through
// the wrapped filesystem, exactly as a real partial write would be.
//
// The wrapper is the test bench for the engine's background-error
// state machine and self-healing read path: it never corrupts state
// the inner filesystem considers committed (that is ext4's CorruptAt
// bit-rot hook), it damages data in flight.

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"noblsm/internal/vclock"
)

// ErrInjected is the sentinel every injected fault wraps; test code
// can distinguish injected failures from real ones with errors.Is.
var ErrInjected = errors.New("vfs: injected fault")

// faultError is an injected failure. It reports its own retryability
// through the TransientFault marker method, which IsTransient checks
// anywhere in a wrapped error chain.
type faultError struct {
	transient bool
	msg       string
}

func (e *faultError) Error() string {
	if e.transient {
		return "vfs: injected fault (transient): " + e.msg
	}
	return "vfs: injected fault (permanent): " + e.msg
}

func (e *faultError) Unwrap() error        { return ErrInjected }
func (e *faultError) TransientFault() bool { return e.transient }

// IsTransient reports whether err (anywhere in its chain) marks itself
// as a transient, retryable I/O failure. The engine's background-error
// state machine retries transient failures with backoff and treats
// everything else as permanent.
func IsTransient(err error) bool {
	var t interface{ TransientFault() bool }
	return errors.As(err, &t) && t.TransientFault()
}

// FileClass groups files by their role in the LSM directory layout,
// mirroring engine/filenames.go without importing it (vfs sits below
// the engine).
type FileClass int

// File classes a rule can match.
const (
	ClassAny FileClass = iota
	ClassWAL
	ClassTable
	ClassManifest
	ClassCurrent
	ClassOther
)

func (c FileClass) String() string {
	switch c {
	case ClassAny:
		return "any"
	case ClassWAL:
		return "wal"
	case ClassTable:
		return "table"
	case ClassManifest:
		return "manifest"
	case ClassCurrent:
		return "current"
	default:
		return "other"
	}
}

// Classify maps a file name to its class by the engine's naming
// conventions (NNNNNN.log, NNNNNN.ldb, MANIFEST-NNNNNN, CURRENT).
func Classify(name string) FileClass {
	switch {
	case name == "CURRENT":
		return ClassCurrent
	case strings.HasPrefix(name, "MANIFEST-"):
		return ClassManifest
	case strings.HasSuffix(name, ".log"):
		return ClassWAL
	case strings.HasSuffix(name, ".ldb"):
		return ClassTable
	default:
		return ClassOther
	}
}

// Op is the operation a rule matches.
type Op int

// Operations a rule can match.
const (
	OpAny Op = iota
	OpOpen
	OpCreate
	OpRead
	OpWrite
	OpSync
)

func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	default:
		return "op(?)"
	}
}

// Kind is the failure mode a rule injects.
type Kind int

// Failure modes.
const (
	// KindError fails the operation outright with no side effect.
	KindError Kind = iota
	// KindShortWrite lands a strict prefix of the append, then fails.
	KindShortWrite
	// KindTornWrite lands a prefix whose final sector is corrupted —
	// the torn multi-block append of a powerless disk cache — then
	// fails.
	KindTornWrite
	// KindBitFlip lands the whole append with one bit flipped and
	// reports success: silent in-flight corruption.
	KindBitFlip
	// KindReadBitFlip serves the read but flips one bit in the
	// returned buffer, leaving the file itself intact.
	KindReadBitFlip
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindShortWrite:
		return "short"
	case KindTornWrite:
		return "torn"
	case KindBitFlip:
		return "bitflip"
	case KindReadBitFlip:
		return "readbitflip"
	default:
		return "kind(?)"
	}
}

// tornSector is the corruption granule of a torn write.
const tornSector = 512

// Rule arms one fault. Zero-valued fields are wildcards where that
// makes sense: Class/Op default to any, P to 1.0 (see AddRule), Count
// to unlimited.
type Rule struct {
	// Class and Op restrict which operations are eligible.
	Class FileClass
	Op    Op
	// Kind is the failure mode. Write-only kinds (short, torn,
	// bitflip) never match reads and vice versa.
	Kind Kind
	// Transient marks the injected error retryable (meaningful for
	// KindError and sync failures).
	Transient bool
	// P is the injection probability per eligible operation; AddRule
	// treats 0 as 1.0 (always).
	P float64
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Match optionally restricts the rule to specific file names.
	Match func(name string) bool

	fired int
}

// FaultStats counts injected faults by mode.
type FaultStats struct {
	Injected     int64
	Errors       int64
	ShortWrites  int64
	TornWrites   int64
	BitFlips     int64
	ReadBitFlips int64
	SyncErrors   int64
}

// FaultFS wraps an FS with fault injection. Construct with NewFaultFS.
type FaultFS struct {
	inner FS
	// Syscalls is inner's: the syscalls query the journal, they move
	// no data.
	Syscalls

	mu      sync.Mutex
	rnd     *rand.Rand
	rules   []*Rule
	enabled bool
	stats   FaultStats
}

// NewFaultFS wraps inner with a fault plane seeded by seed. The result
// is both the filesystem to mount the engine on and the controller for
// arming rules and reading stats. Injection starts enabled with no
// rules armed — a no-op until the first AddRule or Trigger.
func NewFaultFS(inner FS, seed int64) *FaultFS {
	return &FaultFS{
		inner:    inner,
		Syscalls: inner,
		rnd:      rand.New(rand.NewSource(seed)),
		enabled:  true,
	}
}

// SetEnabled pauses (false) or resumes (true) all injection; armed
// rules are kept. Recovery-time Opens in fault schedules disable the
// plane so the crash under test is the only damage.
func (f *FaultFS) SetEnabled(on bool) {
	f.mu.Lock()
	f.enabled = on
	f.mu.Unlock()
}

// AddRule arms a probabilistic rule. A zero P is normalized to 1.0.
func (f *FaultFS) AddRule(r Rule) {
	if r.P == 0 {
		r.P = 1.0
	}
	f.mu.Lock()
	f.rules = append(f.rules, &r)
	f.mu.Unlock()
}

// Trigger arms a one-shot rule: the next eligible operation fails
// with the given mode, then the rule disarms itself.
func (f *FaultFS) Trigger(class FileClass, op Op, kind Kind, transient bool) {
	f.AddRule(Rule{Class: class, Op: op, Kind: kind, Transient: transient, P: 1.0, Count: 1})
}

// ClearRules disarms everything.
func (f *FaultFS) ClearRules() {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// kindMatchesOp reports whether a rule's failure mode applies to op.
func kindMatchesOp(k Kind, op Op) bool {
	switch k {
	case KindShortWrite, KindTornWrite, KindBitFlip:
		return op == OpWrite
	case KindReadBitFlip:
		return op == OpRead
	default:
		return true
	}
}

// decide picks the fault (if any) to inject for an operation. It
// consumes PRNG state only for armed probabilistic rules, keeping
// schedules deterministic for a fixed seed and operation sequence.
func (f *FaultFS) decide(name string, op Op) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled || len(f.rules) == 0 {
		return nil
	}
	class := Classify(name)
	for _, r := range f.rules {
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Class != ClassAny && r.Class != class {
			continue
		}
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if !kindMatchesOp(r.Kind, op) {
			continue
		}
		if r.Match != nil && !r.Match(name) {
			continue
		}
		if r.P < 1.0 && f.rnd.Float64() >= r.P {
			continue
		}
		r.fired++
		f.stats.Injected++
		return r
	}
	return nil
}

// note counts one injected fault of the given mode (Injected itself is
// counted in decide).
func (f *FaultFS) note(c *int64) {
	f.mu.Lock()
	*c++
	f.mu.Unlock()
}

// randIntn draws from the fault plane's PRNG under its lock.
func (f *FaultFS) randIntn(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return f.rnd.Intn(n)
}

func (f *FaultFS) injectedErr(r *Rule, op Op, name string) error {
	return &faultError{transient: r.Transient, msg: fmt.Sprintf("%s %s (%s)", op, name, Classify(name))}
}

// Create implements FS.
func (f *FaultFS) Create(tl *vclock.Timeline, name string) (File, error) {
	if r := f.decide(name, OpCreate); r != nil {
		f.note(&f.stats.Errors)
		return nil, f.injectedErr(r, OpCreate, name)
	}
	inner, err := f.inner.Create(tl, name)
	if err != nil {
		return nil, err
	}
	return &FaultFile{fs: f, name: name, inner: inner}, nil
}

// Open implements FS.
func (f *FaultFS) Open(tl *vclock.Timeline, name string) (File, error) {
	if r := f.decide(name, OpOpen); r != nil {
		f.note(&f.stats.Errors)
		return nil, f.injectedErr(r, OpOpen, name)
	}
	inner, err := f.inner.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return &FaultFile{fs: f, name: name, inner: inner}, nil
}

// ReadFile implements FS. Whole-file reads (recovery) are subject to
// read-error rules but not bit-flip rules: at-rest corruption is the
// inner filesystem's CorruptAt hook, not the fault plane's job.
func (f *FaultFS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	if r := f.decide(name, OpRead); r != nil && r.Kind == KindError {
		f.note(&f.stats.Errors)
		return nil, f.injectedErr(r, OpRead, name)
	}
	return f.inner.ReadFile(tl, name)
}

// WriteFile implements FS.
func (f *FaultFS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	if r := f.decide(name, OpWrite); r != nil && r.Kind == KindError {
		f.note(&f.stats.Errors)
		return f.injectedErr(r, OpWrite, name)
	}
	return f.inner.WriteFile(tl, name, data)
}

// Remove implements FS.
func (f *FaultFS) Remove(tl *vclock.Timeline, name string) error {
	return f.inner.Remove(tl, name)
}

// Rename implements FS.
func (f *FaultFS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	return f.inner.Rename(tl, oldName, newName)
}

// Link implements FS by forwarding without injection — namespace
// operations, like Remove and Rename, are outside the fault plane's
// scope (their durability is the journal's business).
func (f *FaultFS) Link(tl *vclock.Timeline, oldName, newName string) error {
	return f.inner.Link(tl, oldName, newName)
}

// Exists implements FS.
func (f *FaultFS) Exists(tl *vclock.Timeline, name string) bool {
	return f.inner.Exists(tl, name)
}

// List implements FS.
func (f *FaultFS) List(tl *vclock.Timeline) []string { return f.inner.List(tl) }

// Size implements FS.
func (f *FaultFS) Size(tl *vclock.Timeline, name string) (int64, error) {
	return f.inner.Size(tl, name)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(tl *vclock.Timeline) error {
	if r := f.decide("CURRENT", OpSync); r != nil {
		f.note(&f.stats.SyncErrors)
		return f.injectedErr(r, OpSync, "CURRENT")
	}
	return f.inner.SyncDir(tl)
}

// FaultFile wraps one open handle.
type FaultFile struct {
	fs    *FaultFS
	name  string
	inner File
}

var _ File = (*FaultFile)(nil)

// flipBit flips one PRNG-chosen bit in p.
func (f *FaultFile) flipBit(p []byte) {
	if len(p) == 0 {
		return
	}
	i := f.fs.randIntn(len(p))
	bit := f.fs.randIntn(8)
	p[i] ^= 1 << bit
}

// Append implements File with write-fault injection.
func (f *FaultFile) Append(tl *vclock.Timeline, p []byte) error {
	r := f.fs.decide(f.name, OpWrite)
	if r == nil {
		return f.inner.Append(tl, p)
	}
	switch r.Kind {
	case KindShortWrite:
		f.fs.note(&f.fs.stats.ShortWrites)
		// A strict prefix lands; the cost of those bytes is charged
		// to the caller like any append.
		n := 0
		if len(p) > 0 {
			n = f.fs.randIntn(len(p))
		}
		if n > 0 {
			if err := f.inner.Append(tl, p[:n]); err != nil {
				return err
			}
		}
		return f.fs.injectedErr(r, OpWrite, f.name)
	case KindTornWrite:
		f.fs.note(&f.fs.stats.TornWrites)
		// A prefix lands with its final sector corrupted — the shape
		// of a multi-block append cut down mid-flight.
		n := 0
		if len(p) > 0 {
			n = 1 + f.fs.randIntn(len(p))
		}
		if n > 0 {
			torn := append([]byte(nil), p[:n]...)
			lo := n - tornSector
			if lo < 0 {
				lo = 0
			}
			f.flipBit(torn[lo:])
			if err := f.inner.Append(tl, torn); err != nil {
				return err
			}
		}
		return f.fs.injectedErr(r, OpWrite, f.name)
	case KindBitFlip:
		f.fs.note(&f.fs.stats.BitFlips)
		flipped := append([]byte(nil), p...)
		f.flipBit(flipped)
		return f.inner.Append(tl, flipped)
	default:
		f.fs.note(&f.fs.stats.Errors)
		return f.fs.injectedErr(r, OpWrite, f.name)
	}
}

// ReadAt implements File with read-fault injection.
func (f *FaultFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	r := f.fs.decide(f.name, OpRead)
	if r == nil {
		return f.inner.ReadAt(tl, p, off)
	}
	if r.Kind == KindReadBitFlip {
		f.fs.note(&f.fs.stats.ReadBitFlips)
		n, err := f.inner.ReadAt(tl, p, off)
		if n > 0 {
			f.flipBit(p[:n])
		}
		return n, err
	}
	f.fs.note(&f.fs.stats.Errors)
	return 0, f.fs.injectedErr(r, OpRead, f.name)
}

// Sync implements File with sync-fault injection: an injected sync
// failure has no durability effect (the fsync never reached the
// journal).
func (f *FaultFile) Sync(tl *vclock.Timeline) error {
	if r := f.fs.decide(f.name, OpSync); r != nil {
		f.fs.note(&f.fs.stats.SyncErrors)
		return f.fs.injectedErr(r, OpSync, f.name)
	}
	return f.inner.Sync(tl)
}

// ReadView implements File by refusing every view (ok=false), so every
// read reaches ReadAt, where read faults are injected: forwarding would
// let a page-cache-resident read escape the read rules.
func (f *FaultFile) ReadView(*vclock.Timeline, int, int64) ([]byte, bool, error) {
	return nil, false, nil
}

// Peek implements File by forwarding, injecting nothing: a peek is off
// the clock and beside a charged read of the same bytes, which is where
// read faults land — so a fault schedule draws exactly as it would
// without peeking.
func (f *FaultFile) Peek(off int64) ([]byte, error) { return f.inner.Peek(off) }

// Close implements File.
func (f *FaultFile) Close(tl *vclock.Timeline) error { return f.inner.Close(tl) }

// Size implements File.
func (f *FaultFile) Size() int64 { return f.inner.Size() }

// Ino implements File.
func (f *FaultFile) Ino() int64 { return f.inner.Ino() }

// ParseFaultSpec parses the dbbench -faults mini-language: rules are
// separated by ';', fields by ',':
//
//	class=wal|table|manifest|current|any
//	op=open|create|read|write|sync|any
//	kind=error|short|torn|bitflip|readbitflip
//	p=<float>        injection probability (default 1)
//	count=<int>      max injections (default unlimited)
//	transient        mark the error retryable
//
// Example: "class=table,op=read,kind=error,transient,p=0.001;class=wal,op=write,kind=short,count=1".
func ParseFaultSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r := Rule{P: 1.0}
		for _, field := range strings.Split(part, ",") {
			field = strings.TrimSpace(field)
			key, val, hasVal := strings.Cut(field, "=")
			switch key {
			case "class":
				switch val {
				case "wal":
					r.Class = ClassWAL
				case "table":
					r.Class = ClassTable
				case "manifest":
					r.Class = ClassManifest
				case "current":
					r.Class = ClassCurrent
				case "any", "":
					r.Class = ClassAny
				default:
					return nil, fmt.Errorf("vfs: fault spec: unknown class %q", val)
				}
			case "op":
				switch val {
				case "open":
					r.Op = OpOpen
				case "create":
					r.Op = OpCreate
				case "read":
					r.Op = OpRead
				case "write":
					r.Op = OpWrite
				case "sync":
					r.Op = OpSync
				case "any", "":
					r.Op = OpAny
				default:
					return nil, fmt.Errorf("vfs: fault spec: unknown op %q", val)
				}
			case "kind":
				switch val {
				case "error", "":
					r.Kind = KindError
				case "short":
					r.Kind = KindShortWrite
				case "torn":
					r.Kind = KindTornWrite
				case "bitflip":
					r.Kind = KindBitFlip
				case "readbitflip":
					r.Kind = KindReadBitFlip
				default:
					return nil, fmt.Errorf("vfs: fault spec: unknown kind %q", val)
				}
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p <= 0 || p > 1 {
					return nil, fmt.Errorf("vfs: fault spec: bad probability %q", val)
				}
				r.P = p
			case "count":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("vfs: fault spec: bad count %q", val)
				}
				r.Count = n
			case "transient":
				if hasVal {
					return nil, fmt.Errorf("vfs: fault spec: transient takes no value")
				}
				r.Transient = true
			default:
				return nil, fmt.Errorf("vfs: fault spec: unknown field %q", field)
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}
