// prefixfs.go implements PrefixFS, a namespace view that maps a flat
// filesystem's "dir/NAME" entries to plain "NAME". The simulated ext4
// has no directories, so backups live as name prefixes
// ("bk/000005.ldb") in the store's own filesystem; PrefixFS lets
// the engine open such an export in place — Open, Repair, ScrubTables
// all work unchanged — while the primary's file scans ignore the
// prefixed names (they don't parse as engine files).
package vfs

import "noblsm/internal/vclock"

// PrefixFS presents the subset of an inner FS whose names start with
// "dir/" as a root namespace. It is a pure name mapping: files,
// costs, and durability semantics are the inner filesystem's.
type PrefixFS struct {
	inner  FS
	prefix string
}

// prefixSyscallFS adds NobLSM syscall forwarding, returned only when
// the inner filesystem has the syscall surface (same pattern as
// faultSyscallFS) so a prefixed view of a plain FS never falsely
// satisfies the engine's NobLSM-mode type assertion.
type prefixSyscallFS struct {
	*PrefixFS
	sys syscallFS
}

func (p prefixSyscallFS) CheckCommit(tl *vclock.Timeline, inos ...int64) {
	p.sys.CheckCommit(tl, inos...)
}
func (p prefixSyscallFS) IsCommitted(tl *vclock.Timeline, ino int64) bool {
	return p.sys.IsCommitted(tl, ino)
}
func (p prefixSyscallFS) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	return p.sys.CommittedSize(tl, ino)
}

// NewPrefix returns a view of inner rooted at dir (no trailing slash).
func NewPrefix(inner FS, dir string) FS {
	p := &PrefixFS{inner: inner, prefix: dir + "/"}
	if sys, ok := inner.(syscallFS); ok {
		return prefixSyscallFS{p, sys}
	}
	return p
}

func (p *PrefixFS) Create(tl *vclock.Timeline, name string) (File, error) {
	return p.inner.Create(tl, p.prefix+name)
}

func (p *PrefixFS) Open(tl *vclock.Timeline, name string) (File, error) {
	return p.inner.Open(tl, p.prefix+name)
}

func (p *PrefixFS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	return p.inner.ReadFile(tl, p.prefix+name)
}

func (p *PrefixFS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	return p.inner.WriteFile(tl, p.prefix+name, data)
}

func (p *PrefixFS) Remove(tl *vclock.Timeline, name string) error {
	return p.inner.Remove(tl, p.prefix+name)
}

func (p *PrefixFS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	return p.inner.Rename(tl, p.prefix+oldName, p.prefix+newName)
}

// Link implements Linker when the inner filesystem does.
func (p *PrefixFS) Link(tl *vclock.Timeline, oldName, newName string) error {
	if l, ok := p.inner.(Linker); ok {
		return l.Link(tl, p.prefix+oldName, p.prefix+newName)
	}
	return ErrUnsupported
}

func (p *PrefixFS) Exists(tl *vclock.Timeline, name string) bool {
	return p.inner.Exists(tl, p.prefix+name)
}

// List returns the inner names under the prefix, with it stripped.
func (p *PrefixFS) List(tl *vclock.Timeline) []string {
	var out []string
	for _, name := range p.inner.List(tl) {
		if len(name) > len(p.prefix) && name[:len(p.prefix)] == p.prefix {
			out = append(out, name[len(p.prefix):])
		}
	}
	return out
}

func (p *PrefixFS) Size(tl *vclock.Timeline, name string) (int64, error) {
	return p.inner.Size(tl, p.prefix+name)
}

func (p *PrefixFS) SyncDir(tl *vclock.Timeline) error { return p.inner.SyncDir(tl) }
