package engine

import (
	"fmt"
	"sync"

	"noblsm/internal/cache"
	"noblsm/internal/sstable"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
	"noblsm/internal/vfs"
)

// maxOpenTables bounds the table-handle cache (LevelDB's
// max_open_files). Each cached entry is one open sstable.Reader; the
// charge unit is an entry, not bytes.
const maxOpenTables = 4096

// tableCache keeps open sstable.Readers keyed by file number in a
// sharded LRU, sharing one block cache across all tables, like
// LevelDB's TableCache. Lookups of already-open tables are lock-free
// against each other (per-shard locking inside cache.Cache); only a
// miss serializes on mu while the table is opened, so concurrent
// readers cannot open the same table twice.
type tableCache struct {
	fs      vfs.FS
	opts    sstable.Options
	blocks  *cache.Cache
	cblocks *cache.Cache // warm compressed-payload tier; nil when disabled
	tables  *cache.Cache

	// mu serializes opens (cache misses) only.
	mu sync.Mutex
}

func newTableCache(fs vfs.FS, topts sstable.Options, blockCacheBytes, compressedCacheBytes int64) *tableCache {
	tc := &tableCache{
		fs:     fs,
		opts:   topts,
		blocks: cache.New(blockCacheBytes),
		tables: cache.NewSharded(maxOpenTables, 8),
	}
	if compressedCacheBytes > 0 {
		tc.cblocks = cache.New(compressedCacheBytes)
		tc.opts.CompressedCache = tc.cblocks
	}
	return tc
}

// open returns the reader for a live table, opening it on first use
// (footer + index + filter reads are charged to tl).
func (tc *tableCache) open(tl *vclock.Timeline, meta *version.FileMeta) (*sstable.Reader, error) {
	key := cache.Key{ID: meta.Number}
	if v, ok := tc.tables.Get(key); ok {
		return v.(*sstable.Reader), nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if v, ok := tc.tables.Get(key); ok {
		return v.(*sstable.Reader), nil
	}
	f, err := tc.fs.Open(tl, TableName(meta.Number))
	if err != nil {
		return nil, &tableError{num: meta.Number, err: fmt.Errorf("missing: %w", err)}
	}
	r, err := sstable.Open(tl, f, tc.opts, meta.Number, tc.blocks)
	if err != nil {
		return nil, &tableError{num: meta.Number, err: err}
	}
	tc.tables.Put(key, r, 1)
	return r, nil
}

// evict forgets a deleted table and its cached blocks, closing the
// open handle so the filesystem can reclaim the file's page cache.
// Only tables absent from every live and pinned version are evicted
// (disposal.go calls this where it unlinks, and nowhere else), so no
// reader can hold the handle concurrently.
func (tc *tableCache) evict(tl *vclock.Timeline, number uint64) {
	if v, ok := tc.tables.Evict(cache.Key{ID: number}); ok {
		v.(*sstable.Reader).Close(tl)
	}
	tc.blocks.EvictID(number)
	if tc.cblocks != nil {
		tc.cblocks.EvictID(number)
	}
}
