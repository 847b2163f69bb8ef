package main

import (
	"noblsm/internal/core"
	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// fileClass is what kind of engine file a call touched.
type fileClass uint8

const (
	classOther fileClass = iota
	classWAL
	classTable
	classManifest
	classDir // calls that name no file: SyncDir, List, the syscalls
	numClasses
)

var classNames = [numClasses]string{"other", "wal", "table", "manifest", "dir"}

func classOf(name string) fileClass {
	kind, _, ok := engine.ParseFileName(name)
	if !ok {
		return classOther
	}
	switch kind {
	case engine.KindLog:
		return classWAL
	case engine.KindTable:
		return classTable
	case engine.KindManifest:
		return classManifest
	}
	return classOther
}

// tracedFS is the bench's probe at the vfs.FS seam: it forwards every
// call to the ext4 simulation and records a span around it. It must
// forward the optional surfaces too — core.Syscalls (without it the
// engine refuses NobLSM mode, and a wrapper that swallowed CheckCommit
// would silently measure a different system), vfs.Linker, and on files
// vfs.ViewReader (without it reads fall back to copying ReadAt and
// cost a different amount of virtual time).
type tracedFS struct {
	inner *ext4.FS
	tr    *tracer
}

func (t *tracedFS) Create(tl *vclock.Timeline, name string) (vfs.File, error) {
	h, v := t.tr.enter(tl)
	f, err := t.inner.Create(tl, name)
	class := classOf(name)
	t.tr.leave(spanCreate, class, 0, tl, h, v)
	if err != nil {
		return nil, err
	}
	t.tr.fileCreated(name, class)
	return &tracedFile{File: f, view: f.(vfs.ViewReader), tr: t.tr, class: class, name: name}, nil
}

func (t *tracedFS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	h, v := t.tr.enter(tl)
	f, err := t.inner.Open(tl, name)
	class := classOf(name)
	t.tr.leave(spanOpen, class, 0, tl, h, v)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, view: f.(vfs.ViewReader), tr: t.tr, class: class, name: name}, nil
}

func (t *tracedFS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	h, v := t.tr.enter(tl)
	b, err := t.inner.ReadFile(tl, name)
	t.tr.leave(spanReadAt, classOf(name), int64(len(b)), tl, h, v)
	return b, err
}

func (t *tracedFS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	h, v := t.tr.enter(tl)
	err := t.inner.WriteFile(tl, name, data)
	class := classOf(name)
	t.tr.leave(spanAppend, class, int64(len(data)), tl, h, v)
	if err == nil {
		t.tr.fileCreated(name, class)
		t.tr.fileGrew(name, int64(len(data)))
	}
	return err
}

func (t *tracedFS) Remove(tl *vclock.Timeline, name string) error {
	h, v := t.tr.enter(tl)
	err := t.inner.Remove(tl, name)
	t.tr.leave(spanRemove, classOf(name), 0, tl, h, v)
	if err == nil {
		t.tr.fileRemoved(name)
	}
	return err
}

func (t *tracedFS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	h, v := t.tr.enter(tl)
	err := t.inner.Rename(tl, oldName, newName)
	t.tr.leave(spanRename, classOf(newName), 0, tl, h, v)
	if err == nil {
		t.tr.fileRenamed(oldName, newName)
	}
	return err
}

func (t *tracedFS) Exists(tl *vclock.Timeline, name string) bool {
	h, v := t.tr.enter(tl)
	ok := t.inner.Exists(tl, name)
	t.tr.leave(spanMeta, classOf(name), 0, tl, h, v)
	return ok
}

func (t *tracedFS) List(tl *vclock.Timeline) []string {
	h, v := t.tr.enter(tl)
	names := t.inner.List(tl)
	t.tr.leave(spanMeta, classDir, 0, tl, h, v)
	return names
}

func (t *tracedFS) Size(tl *vclock.Timeline, name string) (int64, error) {
	h, v := t.tr.enter(tl)
	n, err := t.inner.Size(tl, name)
	t.tr.leave(spanMeta, classOf(name), 0, tl, h, v)
	return n, err
}

func (t *tracedFS) SyncDir(tl *vclock.Timeline) error {
	h, v := t.tr.enter(tl)
	err := t.inner.SyncDir(tl)
	t.tr.leave(spanSync, classDir, 0, tl, h, v)
	return err
}

// Link implements vfs.Linker.
func (t *tracedFS) Link(tl *vclock.Timeline, oldName, newName string) error {
	h, v := t.tr.enter(tl)
	err := t.inner.Link(tl, oldName, newName)
	t.tr.leave(spanMeta, classOf(newName), 0, tl, h, v)
	if err == nil {
		t.tr.fileLinked(oldName, newName)
	}
	return err
}

// CheckCommit, IsCommitted and CommittedSize implement core.Syscalls.
func (t *tracedFS) CheckCommit(tl *vclock.Timeline, inos ...int64) {
	h, v := t.tr.enter(tl)
	t.inner.CheckCommit(tl, inos...)
	t.tr.leave(spanCheckCommit, classDir, 0, tl, h, v)
}

func (t *tracedFS) IsCommitted(tl *vclock.Timeline, ino int64) bool {
	h, v := t.tr.enter(tl)
	ok := t.inner.IsCommitted(tl, ino)
	t.tr.leave(spanIsCommitted, classDir, 0, tl, h, v)
	return ok
}

func (t *tracedFS) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	h, v := t.tr.enter(tl)
	n := t.inner.CommittedSize(tl, ino)
	t.tr.leave(spanIsCommitted, classDir, 0, tl, h, v)
	return n
}

// tracedFile wraps a handle. Size and Ino are forwarded by embedding:
// they cost nothing on either clock.
type tracedFile struct {
	vfs.File
	view  vfs.ViewReader
	tr    *tracer
	class fileClass
	name  string
}

func (f *tracedFile) Append(tl *vclock.Timeline, p []byte) error {
	h, v := f.tr.enter(tl)
	err := f.File.Append(tl, p)
	f.tr.leave(spanAppend, f.class, int64(len(p)), tl, h, v)
	if err == nil {
		f.tr.fileGrew(f.name, int64(len(p)))
	}
	return err
}

func (f *tracedFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	h, v := f.tr.enter(tl)
	n, err := f.File.ReadAt(tl, p, off)
	f.tr.leave(spanReadAt, f.class, int64(n), tl, h, v)
	return n, err
}

// ReadView implements vfs.ViewReader.
func (f *tracedFile) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	h, v := f.tr.enter(tl)
	p, ok, err := f.view.ReadView(tl, n, off)
	f.tr.leave(spanReadAt, f.class, int64(len(p)), tl, h, v)
	return p, ok, err
}

func (f *tracedFile) Sync(tl *vclock.Timeline) error {
	h, v := f.tr.enter(tl)
	err := f.File.Sync(tl)
	f.tr.leave(spanSync, f.class, 0, tl, h, v)
	return err
}

func (f *tracedFile) Close(tl *vclock.Timeline) error {
	h, v := f.tr.enter(tl)
	err := f.File.Close(tl)
	f.tr.leave(spanMeta, f.class, 0, tl, h, v)
	return err
}

var _ interface {
	vfs.FS
	vfs.Linker
	core.Syscalls
} = (*tracedFS)(nil)

var _ interface {
	vfs.File
	vfs.ViewReader
} = (*tracedFile)(nil)
