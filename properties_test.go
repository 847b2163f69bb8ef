package noblsm

import (
	"fmt"
	"strings"
	"testing"

	"noblsm/internal/ext4"
)

// TestProperties exercises the introspection properties on a NobLSM
// store that has flushed and compacted: the per-level table must list
// files and track shadow retention, and every documented name must
// resolve.
func TestProperties(t *testing.T) {
	db, err := Open(NobLSM, Config{WriteBufferSize: 16 << 10, TableFileSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i%500)), val); err != nil {
			t.Fatal(err)
		}
	}

	stats, ok := db.Property("noblsm.stats")
	if !ok {
		t.Fatal("noblsm.stats not supported")
	}
	for _, want := range []string{"Level", "Files", "Shadow", "Retained",
		"write amplification", "compaction bytes", "stalls", "shadow tables"} {
		if !strings.Contains(stats, want) {
			t.Errorf("noblsm.stats missing %q:\n%s", want, stats)
		}
	}

	sst, ok := db.Property("noblsm.sstables")
	if !ok {
		t.Fatal("noblsm.sstables not supported")
	}
	if !strings.Contains(sst, "level") {
		t.Errorf("noblsm.sstables lists no levels:\n%s", sst)
	}

	trk, ok := db.Property("noblsm.tracker")
	if !ok {
		t.Fatal("noblsm.tracker not supported")
	}
	if !strings.Contains(trk, "deps registered") {
		t.Errorf("noblsm.tracker missing dependency counts:\n%s", trk)
	}

	met, ok := db.Property("noblsm.metrics")
	if !ok {
		t.Fatal("noblsm.metrics not supported")
	}
	// The shared registry must span all layers of the stack.
	for _, want := range []string{"engine.puts", "ext4.syncs", "ext4.journal_bytes", "ext4.journal_inodes",
		"ext4.page_cache_bytes", "ext4.page_cache_free_bytes", "ext4.page_cache_tail_bytes", "ext4.file_bytes",
		"ssd.bytes_written", "wal.records",
		"compaction.bytes_read", "compaction.bytes_written", "compaction.duration_us"} {
		if !strings.Contains(met, want) {
			t.Errorf("noblsm.metrics missing %q", want)
		}
	}

	// The doctor splits the device's writes by origin, journal included.
	doc, ok := db.Property("noblsm.doctor")
	if !ok || !strings.Contains(doc, "-- device writes --") || !strings.Contains(doc, "ext4.journal_bytes") {
		t.Errorf("noblsm.doctor has no device-write split with the journal's share:\n%s", doc)
	}
	if !strings.Contains(doc, "page cache: ") || !strings.Contains(doc, "MB of files") || !strings.Contains(doc, "MB of it in tail pieces") {
		t.Errorf("noblsm.doctor has no page-cache line:\n%s", doc)
	}
	// Beside it, what explains the process's resident memory: the Go
	// heap and the page cache's slabs, off the heap outside race builds.
	where := " MB off the heap, "
	if !ext4.OffHeap {
		where = " MB on the heap, "
	}
	if !strings.Contains(doc, "host memory: Go heap ") || !strings.Contains(doc, "MB of objects; page-cache slabs ") ||
		!strings.Contains(doc, where) {
		t.Errorf("noblsm.doctor has no host-memory line with slabs%sin this build:\n%s", where, doc)
	}

	// A Get adds what point reads examined to the doctor.
	if _, err := db.Get([]byte("key000007")); err != nil {
		t.Fatal(err)
	}
	doc, _ = db.Property("noblsm.doctor")
	if !strings.Contains(doc, "point reads decoded ") || !strings.Contains(doc, " files examined per Get, ") ||
		!strings.Contains(doc, " bloom false positives\n") {
		t.Errorf("noblsm.doctor has no point-read line with files examined and bloom false positives:\n%s", doc)
	}

	if _, ok := db.Property("noblsm.nope"); ok {
		t.Error("unknown property reported ok")
	}
}

// TestPropertyTrackerAbsent checks the tracker property degrades
// gracefully on variants without a tracker.
func TestPropertyTrackerAbsent(t *testing.T) {
	db, err := Open(LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	trk, ok := db.Property("noblsm.tracker")
	if !ok || !strings.Contains(trk, "no tracker") {
		t.Fatalf("tracker property on LevelDB = %q, ok=%v", trk, ok)
	}
}
