package vfs_test

import (
	"bytes"
	"errors"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// TestSyscallForwarding checks that every wrapper passes the whole
// surface to the ext4 it wraps: the syscalls and Link reach the inner
// FS (PrefixFS's Link under the prefixed names), and Peek and ReadView
// the inner file — except FaultFile's ReadView, which refuses every
// view so that reads meet the read rules.
func TestSyscallForwarding(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wrap  func(vfs.FS) vfs.FS
		dir   string // the prefix of the inner names
		views bool
	}{
		{"fault", func(fs vfs.FS) vfs.FS { return vfs.NewFaultFS(fs, 1) }, "", false},
		{"crash", func(fs vfs.FS) vfs.FS { return vfs.NewCrashFS(fs) }, "", true},
		{"prefix", func(fs vfs.FS) vfs.FS { return vfs.NewPrefix(fs, "bk") }, "bk/", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := vclock.NewTimeline(0)
			inner := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
			fs := tc.wrap(inner)
			f, err := fs.Create(tl, "000001.ldb")
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Append(tl, []byte("table")); err != nil {
				t.Fatal(err)
			}
			fs.CheckCommit(tl, f.Ino())
			inner.ForceCommit(tl)
			if !inner.IsCommitted(tl, f.Ino()) {
				t.Error("CheckCommit did not reach the inner FS")
			}
			if !fs.IsCommitted(tl, f.Ino()) {
				t.Error("IsCommitted did not reach the inner FS")
			}
			if got := fs.CommittedSize(tl, f.Ino()); got != 5 {
				t.Errorf("CommittedSize = %d, want the inner FS's 5", got)
			}
			if err := fs.Link(tl, "000001.ldb", "000002.ldb"); err != nil {
				t.Fatal(err)
			}
			if !inner.Exists(tl, tc.dir+"000002.ldb") {
				t.Errorf("Link did not reach the inner FS as %q", tc.dir+"000002.ldb")
			}
			if p, err := f.Peek(1); err != nil || string(p) != "able" {
				t.Errorf("Peek(1) = %q, %v; want the inner file's \"able\"", p, err)
			}
			if _, ok, err := f.ReadView(tl, 5, 0); ok != tc.views || err != nil {
				t.Errorf("ReadView ok = %v, %v; want %v", ok, err, tc.views)
			}
		})
	}
}

// TestFaultFSResidentReadMeetsRule arms a read rule on a table and reads
// a page-cache-resident range of it through the FaultFS mount the way a
// table reader does: a view first, ReadAt when the view is refused. The
// rule must fire, so FaultFile.ReadView must refuse the view that the
// ext4 file below it grants.
func TestFaultFSResidentReadMeetsRule(t *testing.T) {
	inner := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
	mount := vfs.NewFaultFS(inner, 1)
	tl := vclock.NewTimeline(0)
	if err := mount.WriteFile(tl, "000001.ldb", bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	raw, err := inner.Open(tl, "000001.ldb")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close(tl)
	if _, ok, err := raw.ReadView(tl, 512, 0); !ok || err != nil {
		t.Fatalf("ext4 refused a view of a fresh table (ok=%v, %v): the range is not resident", ok, err)
	}

	f, err := mount.Open(tl, "000001.ldb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(tl)
	mount.Trigger(vfs.ClassTable, vfs.OpRead, vfs.KindError, false)
	buf := make([]byte, 512)
	if _, ok, err := f.ReadView(tl, len(buf), 0); ok || err != nil {
		t.Fatalf("FaultFile.ReadView = ok %v, %v: a resident read escaped the armed rule", ok, err)
	}
	if _, err := f.ReadAt(tl, buf, 0); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("ReadAt = %v, want the armed fault", err)
	}
}
