package engine

import (
	"testing"

	"noblsm/internal/cache"
	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// TestEvictTableCountsNoLookup: dropping a deleted table's reader is
// not a table-cache lookup, so it moves neither cache.table.hits nor
// cache.table.misses — for an open table and for one never opened.
func TestEvictTableCountsNoLookup(t *testing.T) {
	fs := ext4.New(smallFSConfig(), smallDevice())
	tl := vclock.NewTimeline(0)
	db, err := Open(tl, fs, smallOpts(SyncNobLSM))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(tl)
	churn(t, db, tl, 1, 3000)
	var meta *version.FileMeta
	for _, files := range db.Version().Files {
		if len(files) > 0 {
			meta = files[0]
			break
		}
	}
	if meta == nil {
		t.Fatal("no live table")
	}
	if _, err := db.tcache.open(tl, meta); err != nil {
		t.Fatal(err)
	}
	hits, misses := counter(t, db, "cache.table.hits"), counter(t, db, "cache.table.misses")
	db.EvictTable(tl, meta.Number)
	db.EvictTable(tl, 1<<40)
	if h, m := counter(t, db, "cache.table.hits"), counter(t, db, "cache.table.misses"); h != hits || m != misses {
		t.Errorf("evicting two tables moved cache.table.hits %d → %d and cache.table.misses %d → %d", hits, h, misses, m)
	}
	if _, ok := db.tcache.tables.Evict(cache.Key{ID: meta.Number}); ok {
		t.Error("the evicted table is still cached")
	}
}
