package engine

import (
	"bytes"
	"fmt"
	"testing"

	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/wal"
)

// fillPutsOnly drives overwrite-heavy puts and returns the expected
// final state. Puts only: repair rebuilds with every kept table at
// level 0, which preserves put/overwrite semantics exactly but (as
// documented on Repair) can resurrect deleted keys, so delete
// workloads are not part of the repair equality contract.
func fillPutsOnly(t *testing.T, db *DB, tl *vclock.Timeline, ops, keyspace int) map[string]string {
	t.Helper()
	expected := make(map[string]string)
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key-%05d", i%keyspace)
		v := fmt.Sprintf("%s=val-%05d-%s", k, i, bytes.Repeat([]byte{'r'}, 60))
		mustPut(t, db, tl, k, v)
		expected[k] = v
	}
	return expected
}

// verifyState checks every expected key reads back exactly and a full
// scan surfaces no key outside the expected set.
func verifyState(t *testing.T, db *DB, tl *vclock.Timeline, expected map[string]string) {
	t.Helper()
	for k, v := range expected {
		got, err := db.Get(tl, []byte(k))
		if err != nil {
			t.Fatalf("key %q: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("key %q: got %q want %q", k, got, v)
		}
	}
	it, err := db.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if _, ok := expected[string(it.Key())]; !ok {
			t.Fatalf("scan surfaced unexpected key %q", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(expected) {
		t.Fatalf("scan found %d keys, want %d", n, len(expected))
	}
}

// TestRepairManifestDeleted destroys the version metadata completely —
// CURRENT and every MANIFEST gone — and requires Repair to rebuild a
// servable store from the SSTables and WALs alone.
func TestRepairManifestDeleted(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncAll)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	expected := fillPutsOnly(t, db, tl, 5000, 800)
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}

	for _, name := range fs.List(tl) {
		if k, _, ok := ParseFileName(name); ok && (k == KindCurrent || k == KindManifest) {
			if err := fs.Remove(tl, name); err != nil {
				t.Fatal(err)
			}
		}
	}

	rep, err := Repair(tl, fs, opts)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.ManifestState != "missing" {
		t.Fatalf("manifest state %q, want %q", rep.ManifestState, "missing")
	}
	if len(rep.Kept) == 0 {
		t.Fatal("repair kept no tables from a store full of data")
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("repair quarantined intact tables: %v", rep.Quarantined)
	}
	if len(rep.LogsRetained) == 0 {
		t.Fatal("repair dropped the WALs: the unflushed tail would be lost")
	}

	db2, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer db2.Close(tl)
	verifyState(t, db2, tl, expected)
}

// TestRepairShadowPredecessorFallback is the NobLSM-specific repair
// path: a major-compaction successor that never journal-committed is
// corrupted on disk AND the manifest's interior is damaged. Repair
// must quarantine the successor, condemn its whole install, fall back
// to the retained shadow predecessors, and still serve the full acked
// keyspace.
func TestRepairShadowPredecessorFallback(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	opts := smallOpts(SyncNobLSM)
	// Polling never fires inside this sub-second workload, so no
	// successor's commit dependency ever resolves: every predecessor
	// stays retained — the repair fallback this test exercises.
	opts.PollInterval = 3600 * vclock.Second
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Run until (a) at least one successor is healable and (b) the
	// manifest spans several 32 KiB log blocks — interior damage needs
	// valid records in blocks AFTER the damaged one, since a corrupt
	// record skips the reader to the next block boundary.
	expected := make(map[string]string)
	var healable []uint64
	manifestBig := false
	for i := 0; i < 400_000; i++ {
		k := fmt.Sprintf("key-%05d", i%800)
		v := fmt.Sprintf("%s=val-%06d-%s", k, i, bytes.Repeat([]byte{'s'}, 60))
		mustPut(t, db, tl, k, v)
		expected[k] = v
		if i%2000 == 0 && i > 0 {
			healable = db.HealableSuccessors()
			for _, name := range fs.List(tl) {
				if kind, _, ok := ParseFileName(name); ok && kind == KindManifest {
					if sz, err := fs.Size(tl, name); err == nil && sz > 80<<10 {
						manifestBig = true
					}
				}
			}
			if len(healable) > 0 && manifestBig {
				break
			}
		}
	}
	if len(healable) == 0 || !manifestBig {
		t.Fatalf("workload did not reach the repair scenario: healable=%v manifestBig=%v", healable, manifestBig)
	}
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}

	// Corrupt the middle of an uncommitted successor table, and an
	// early interior record of the manifest (damage with valid
	// records after it): in-place recovery cannot absorb either.
	// The most recent healable successor: its install edit sits near
	// the manifest tail, well clear of the damage injected below.
	victim := healable[len(healable)-1]
	size, err := fs.Size(tl, TableName(victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptAt(TableName(victim), size/2); err != nil {
		t.Fatal(err)
	}
	manifest := findFile(t, fs, tl, KindManifest)
	corruptRecordPayload(t, fs, tl, manifest, 1)

	rep, err := Repair(tl, fs, opts)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.ManifestState != "interior" {
		t.Fatalf("manifest state %q, want %q", rep.ManifestState, "interior")
	}
	contains := func(nums []uint64, n uint64) bool {
		for _, x := range nums {
			if x == n {
				return true
			}
		}
		return false
	}
	if !contains(rep.Quarantined, victim) {
		t.Fatalf("corrupt successor %d not quarantined: %v", victim, rep.Quarantined)
	}
	if !contains(rep.Condemned, victim) {
		t.Fatalf("corrupt successor %d not condemned: %v", victim, rep.Condemned)
	}
	if !fs.Exists(tl, TableName(victim)+".corrupt") {
		t.Fatal("quarantined table was not renamed out of the engine namespace")
	}

	db2, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer db2.Close(tl)
	verifyState(t, db2, tl, expected)
	t.Logf("repair: %d scanned, %d kept, condemned %v, superseded %d",
		rep.TablesScanned, len(rep.Kept), rep.Condemned, len(rep.Superseded))
}

// TestRepairCommittedCompactionSurvivorsKept is the opposite pole from
// the shadow-predecessor fallback: a compaction that committed long
// ago — its predecessors already deleted by the normal lifecycle —
// loses one successor to corruption. No fallback exists any more, so
// Repair must NOT condemn the install: the intact sibling successors
// are the only remaining copy of their key ranges and must be Kept.
// (A vacuously-transitive condemnation bug once marked every consumed
// table "condemned" via its predecessor-free flush edit, which made
// the gone predecessors look covered and discarded the siblings.)
func TestRepairCommittedCompactionSurvivorsKept(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	// SyncAll: every compaction install commits durably at once and the
	// predecessors are deleted immediately — the committed steady state.
	opts := smallOpts(SyncAll)
	db, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	fillPutsOnly(t, db, tl, 30_000, 2000)
	if err := db.Close(tl); err != nil {
		t.Fatal(err)
	}

	// Decode the manifest history and find a committed multi-output
	// compaction: ≥2 successors all intact on disk, ≥1 real (non-self)
	// predecessor, and every predecessor already deleted.
	manifest := findFile(t, fs, tl, KindManifest)
	data, err := fs.ReadFile(tl, manifest)
	if err != nil {
		t.Fatal(err)
	}
	var candidate *version.VersionEdit
	r := wal.NewReader(data)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		e, derr := version.DecodeEdit(rec)
		if derr != nil || len(e.NewFiles) < 2 {
			continue
		}
		newSet := make(map[uint64]bool, len(e.NewFiles))
		allOnDisk := true
		for _, nf := range e.NewFiles {
			newSet[nf.Meta.Number] = true
			if !fs.Exists(tl, TableName(nf.Meta.Number)) {
				allOnDisk = false
			}
		}
		predsGone, preds := true, 0
		for _, df := range e.DeletedFiles {
			if newSet[df.Number] {
				continue // trivial move, not a dependency
			}
			preds++
			if fs.Exists(tl, TableName(df.Number)) {
				predsGone = false
			}
		}
		if allOnDisk && preds > 0 && predsGone {
			candidate = e // prefer the newest such edit
		}
	}
	if candidate == nil {
		t.Fatal("workload produced no committed multi-output compaction with deleted predecessors; grow the fill")
	}

	victim := candidate.NewFiles[0].Meta.Number
	size, err := fs.Size(tl, TableName(victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptAt(TableName(victim), size/2); err != nil {
		t.Fatal(err)
	}

	rep, err := Repair(tl, fs, opts)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	contains := func(nums []uint64, n uint64) bool {
		for _, x := range nums {
			if x == n {
				return true
			}
		}
		return false
	}
	if !contains(rep.Quarantined, victim) {
		t.Fatalf("corrupt successor %d not quarantined: %v", victim, rep.Quarantined)
	}
	// Fully-committed store: no install anywhere still has recoverable
	// predecessors, so nothing may be condemned.
	if len(rep.Condemned) != 0 {
		t.Fatalf("repair condemned %v in a store with no retained predecessors", rep.Condemned)
	}
	for _, nf := range candidate.NewFiles[1:] {
		if !contains(rep.Kept, nf.Meta.Number) {
			t.Fatalf("intact sibling successor %d not kept (kept=%v superseded=%v condemned=%v)",
				nf.Meta.Number, rep.Kept, rep.Superseded, rep.Condemned)
		}
	}

	// The store must reopen and scan cleanly; only the victim's range
	// may be lost.
	db2, err := Open(tl, fs, opts)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer db2.Close(tl)
	it, err := db2.NewIterator(tl)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("post-repair scan: %v", err)
	}
	if n == 0 {
		t.Fatal("post-repair scan surfaced no keys")
	}
	t.Logf("repair: victim %d quarantined, %d siblings kept, %d keys scanned", victim, len(candidate.NewFiles)-1, n)
}

// TestClassifyManifest pins the one-pass manifest decode: a clean image,
// a torn tail, damage followed by valid records, and an undecodable
// record before or at the end.
func TestClassifyManifest(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	// Three edits of about 20 KiB each, so each 32 KiB log block holds
	// at most two and damage to the first leaves the third readable.
	image := func(recs ...[]byte) []byte {
		f, err := fs.Create(tl, "manifest-image")
		if err != nil {
			t.Fatal(err)
		}
		w := wal.NewWriter(f)
		for _, r := range recs {
			if err := w.AddRecord(tl, r); err != nil {
				t.Fatal(err)
			}
		}
		f.Close(tl)
		data, err := fs.ReadFile(tl, "manifest-image")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	edit := func(num uint64) []byte {
		e := &version.VersionEdit{}
		key := keys.MakeInternalKey(nil, bytes.Repeat([]byte{'k'}, 10<<10), 1, keys.KindValue)
		e.AddFile(1, &version.FileMeta{Number: num, Smallest: key, Largest: key})
		return e.Encode()
	}
	garbage := []byte{0xff, 0xff, 0xff}
	clean := image(edit(1), edit(2), edit(3))
	flipped := append([]byte(nil), clean...)
	flipped[7+1] ^= 0xff // past the 7-byte record header: a CRC mismatch
	for _, c := range []struct {
		name  string
		data  []byte
		edits int
		state string
	}{
		{"clean", clean, 3, manifestClean},
		{"torn tail", clean[:len(clean)-100], 2, manifestTornTail},
		{"damage before valid records", flipped, 1, manifestInterior},
		{"undecodable before valid records", image(edit(1), garbage, edit(3)), 2, manifestInterior},
		{"undecodable at the end", image(edit(1), edit(2), garbage), 2, manifestTornTail},
	} {
		edits, state := classifyManifest(c.data)
		if len(edits) != c.edits || state != c.state {
			t.Errorf("%s: %d edits, %s; want %d, %s", c.name, len(edits), state, c.edits, c.state)
		}
	}
}
