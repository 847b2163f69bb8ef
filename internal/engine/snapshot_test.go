package engine

import (
	"bytes"
	"fmt"
	"testing"

	"noblsm/internal/version"
)

func TestSnapshotPinsView(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	mustPut(t, db, tl, "k", "v1")
	snap := db.GetSnapshot()
	mustPut(t, db, tl, "k", "v2")
	mustPut(t, db, tl, "k2", "new")

	if v, err := db.GetAt(tl, []byte("k"), snap); err != nil || string(v) != "v1" {
		t.Fatalf("snapshot read = %q, %v", v, err)
	}
	if _, err := db.GetAt(tl, []byte("k2"), snap); err != ErrNotFound {
		t.Fatalf("snapshot saw a later insert: %v", err)
	}
	if v, _ := db.Get(tl, []byte("k")); string(v) != "v2" {
		t.Fatal("live read stale")
	}
	if err := db.ReleaseSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseSnapshot(snap); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestSnapshotSurvivesCompactions(t *testing.T) {
	db, _, tl := newDB(t, SyncNobLSM)
	const n = 1200
	workload(t, db, tl, n, 0)
	snap := db.GetSnapshot()
	// Overwrite everything and churn compactions; the snapshot must
	// still see round 0.
	workload(t, db, tl, n, 1)
	workload(t, db, tl, n/2, 2)
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("key%013d", i)
		want := fmt.Sprintf("value-%d-%d-%s", 0, i, string(bytes.Repeat([]byte("x"), 100)))
		v, err := db.GetAt(tl, []byte(k), snap)
		if err != nil {
			t.Fatalf("snapshot lost key %s: %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("snapshot key %s sees a newer round", k)
		}
	}
	db.ReleaseSnapshot(snap)
}

func TestSnapshotDeleteVisibility(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	mustPut(t, db, tl, "doomed", "alive")
	snap := db.GetSnapshot()
	db.Delete(tl, []byte("doomed"))
	// Churn so the tombstone gets compacted around.
	workload(t, db, tl, 1500, 0)
	if v, err := db.GetAt(tl, []byte("doomed"), snap); err != nil || string(v) != "alive" {
		t.Fatalf("snapshot read of pre-delete key: %q, %v", v, err)
	}
	if _, err := db.Get(tl, []byte("doomed")); err != ErrNotFound {
		t.Fatal("live read resurrected a deleted key")
	}
	db.ReleaseSnapshot(snap)
}

func TestSnapshotIterator(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	for i := 0; i < 50; i++ {
		mustPut(t, db, tl, fmt.Sprintf("k%03d", i), "old")
	}
	snap := db.GetSnapshot()
	for i := 25; i < 75; i++ {
		mustPut(t, db, tl, fmt.Sprintf("k%03d", i), "new")
	}
	it, err := db.NewIteratorAt(tl, snap)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Value()) != "old" {
			t.Fatalf("snapshot iterator sees %q at %q", it.Value(), it.Key())
		}
		count++
	}
	if count != 50 {
		t.Fatalf("snapshot iterator saw %d keys, want 50", count)
	}
	db.ReleaseSnapshot(snap)
}

func TestCompactRangeDrainsUpperLevels(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	workload(t, db, tl, 3000, 0)
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	for level := 0; level < 3; level++ {
		if v.NumFiles(level) != 0 {
			t.Fatalf("level %d still has %d files after full CompactRange\n%s",
				level, v.NumFiles(level), v.DebugString())
		}
	}
	verifyWorkload(t, db, tl, 3000, 0)
}

func TestCompactRangePartial(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	workload(t, db, tl, 2000, 0)
	begin := []byte(fmt.Sprintf("key%013d", 0))
	end := []byte(fmt.Sprintf("key%013d", 500))
	if err := db.CompactRange(tl, begin, end); err != nil {
		t.Fatal(err)
	}
	verifyWorkload(t, db, tl, 2000, 0)
}

func TestSnapshotReleaseAllowsReclaim(t *testing.T) {
	db, _, tl := newDB(t, SyncAll)
	const n = 1000
	workload(t, db, tl, n, 0)
	snap := db.GetSnapshot()
	workload(t, db, tl, n, 1)
	sizeWithSnap := liveBytes(db)
	db.ReleaseSnapshot(snap)
	// Force a full rewrite: superseded round-0 versions may now go.
	if err := db.CompactRange(tl, nil, nil); err != nil {
		t.Fatal(err)
	}
	sizeAfter := liveBytes(db)
	if sizeAfter >= sizeWithSnap {
		t.Fatalf("no space reclaimed after release: %d -> %d", sizeWithSnap, sizeAfter)
	}
	verifyWorkload(t, db, tl, n, 1)
}

// liveBytes sums the sizes of the tables the current version holds.
func liveBytes(db *DB) int64 {
	var total int64
	v := db.Version()
	for level := 0; level < version.NumLevels; level++ {
		total += v.TotalSize(level)
	}
	return total
}
