# Development targets. The module is stdlib-only; everything runs on
# the in-process simulated SSD/ext4 stack (no services, no real disk).

GO ?= go

.PHONY: build test race obsstress readstress stallstress fuzz-smoke bench-smoke microbench bench-check flakegate forkcount figures verify

# Build and vet, vet the page cache's non-unix slab source (heap
# slabs, no mmap) for Windows, refuse a `DESIGN.md §N` reference to no
# section (scripts/designrefs.sh), then refuse any Go file gofmt would
# change (the benchmark's build directory, .bench_build/, aside).
build:
	$(GO) build ./...
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./internal/ext4
	scripts/designrefs.sh
	@unformatted=$$(find . \( -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files that need gofmt -w:" >&2; echo "$$unformatted" >&2; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Observability stress: the telemetry plane under the race detector
# twice over — time-series ring rotation and tracer wraparound under
# concurrent load. (`race` already runs, once, the exposition endpoints
# polled against a live benchmark and the attribution-conservation
# check of internal/harness.)
obsstress:
	$(GO) test -race ./internal/obs -count=2

# Read-path stress: point reads, 16-key MultiGets and full scans —
# per-block compression and the two-tier block cache (sized tiny so
# eviction races refill) both on — hammered
# against live writers under the race detector, plus the MultiGet
# equivalence/torn-batch properties.
readstress:
	$(GO) test -race ./internal/engine -run 'ReadStress|MultiGet|SelfHealingReadCompressed' -count=2

# Admission-control stress: the engine-level pacing-vs-cliff
# properties under the race detector twice over (pacing replaces the
# cliff, a saturated governor keeps every acked write across reopen,
# governor off is stock). (`race` already runs, once, the governor's
# token-bucket/debt-model unit tests.)
stallstress:
	$(GO) test -race ./internal/engine -run Governor -count=2

# Short fuzz smoke of the parsers recovery depends on: WAL records,
# SSTable blocks, manifest edits, the block codec round-trip and the
# windowed payload an encoded block is stored as, and of
# the recovery planner over arbitrary edits and lost tables; then
# the wire frame/request decoder, which no client reaches any more but
# which stays, with its fuzzer, while bench/probes.go times it.
fuzz-smoke:
	$(GO) test ./internal/wal -fuzz FuzzWALReader -fuzztime 30s
	$(GO) test ./internal/block -fuzz FuzzBlockReader -fuzztime 30s
	$(GO) test ./internal/version -fuzz FuzzManifestDecode -fuzztime 30s
	$(GO) test ./internal/compress -fuzz FuzzCompressRoundTrip -fuzztime 30s
	$(GO) test ./internal/sstable -run '^$$' -fuzz FuzzWindowedPayload -fuzztime 30s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzRecoveryPlan -fuzztime 30s
	$(GO) test ./internal/server/wire -fuzz FuzzFrameDecode -fuzztime 30s

# One iteration of every benchmark — exercises the write-queue, arena
# memtable, the compaction merge loop, the block codec, the table
# builder and reader, the block iterator, the merge fan-in, the value
# generator and the page cache without measuring anything: a benchmark
# that stops compiling or hits its b.Fatal fails here.
bench-smoke:
	$(GO) test ./internal/memtable ./internal/engine ./internal/compress ./internal/sstable ./internal/block ./internal/iterator ./internal/dbbench ./internal/ext4 -run NONE -bench . -benchtime 1x

# A Put's host cost by layer, on one CPU: the value generator, the
# merge's fan-in (a child per table against a child per level), the
# table builder, the codec's encode (what the compaction's seal stage
# spends), and the compaction that joins them (ns/op, MB/s, B/op,
# allocs/op) — raw, at MaxCompression, and at MaxCompression with a
# sparse level over a dense one, whose untouched blocks are adopted as
# stored — on one CPU, where its three stages share a core, and on two,
# where sealing runs beside the merge.
# Numbers to compare against are in DESIGN.md §14.
# Then a Get's host cost by layer: the memtable probe, a block seek, a
# table lookup on a cached block, a block's decode — whole, and to the
# end of its median entry — a table lookup that misses both tiers of an
# encoded table, which decodes one window of its block, and the
# engine's Get, warm on raw blocks and cold through both tiers of a
# compressed store (DESIGN.md §15). Last, the page cache both share: a 4 KiB append and a view of
# it, with files recycled through the filesystem's free lists, and a
# 100 KiB file written and closed, which trims its last extent
# (DESIGN.md §5.3).
microbench:
	$(GO) test ./internal/dbbench -run NONE -bench 'Value1KB$$' -benchmem -cpu 1
	$(GO) test ./internal/iterator -run NONE -bench 'MergeFanIn$$' -benchmem -cpu 1
	$(GO) test ./internal/sstable -run NONE -bench 'TableBuild$$' -benchmem -cpu 1
	$(GO) test ./internal/compress -run NONE -bench 'Encode(Fast|Max)$$' -benchtime 20000x -benchmem -cpu 1
	$(GO) test ./internal/engine -run NONE -bench 'MajorCompaction(Max|MaxSparse)?$$' -benchtime 20x -benchmem -cpu 1,2
	$(GO) test ./internal/memtable -run NONE -bench 'Get$$' -benchmem -cpu 1
	$(GO) test ./internal/block -run NONE -bench 'BlockSeek$$' -benchmem -cpu 1
	$(GO) test ./internal/sstable -run NONE -bench 'TableGet$$' -benchmem -cpu 1
	$(GO) test ./internal/compress -run NONE -bench 'Decode(Prefix)?$$' -benchtime 20000x -benchmem -cpu 1
	$(GO) test ./internal/sstable -run NONE -bench 'TableGetCold$$' -benchmem -cpu 1
	$(GO) test ./internal/engine -run NONE -bench 'Get$$' -benchmem -cpu 1
	$(GO) test ./internal/ext4 -run NONE -bench 'AppendView$$' -benchmem -cpu 1

# The benchmark is a module of its own (bench/go.mod), so the root's
# `go vet ./...` and `go test ./...` skip it; it imports internal/*
# and breaks unnoticed when an exported signature there moves. The race
# pass covers its scheduler and sinks; the quick mixed run exits non-zero
# when reps of one seed differ in any counter (the determinism gate) or
# an output fails verification.
bench-check:
	cd bench && $(GO) vet . && $(GO) test . && $(GO) test -race .
	bash bench/run.sh -workload mixed -quick -seed 1 >/dev/null

# Zero tolerated flakes: every Concurrent test (group commit, lock-free
# reads, the goroutine executor, crash atomicity, scans beside shadow
# releases) twenty times under the race detector (~130 s), and as often
# the compaction stages' fault parity with the single-goroutine merge —
# its errors, abandoned outputs, instants and goroutines when a read, a
# block's CRC or an append fails, an adopted block's among them — and
# the blocks the stages adopt, inline and apart, then the two that have failed once in a few
# dozen runs for a reason since fixed (a lock-free ReadAt racing an
# Append on the tail chunk's slice header, and a directory-scan GC
# deleting a table the background flush had written but not yet
# installed, which exports racing a writer on the goroutine executor
# exposed; memtable readers starting before the publish counter was
# set), repeated often enough to catch any of them coming back.
flakegate:
	$(GO) test -race -count=20 -run Concurrent ./internal/engine ./internal/memtable
	$(GO) test -race -count=20 -run 'TestCompactionFaultParity|TestCompactionPendingReadFault|TestCompactionAdoptsEncodedBlocks' ./internal/engine
	$(GO) test -race -count=30 -run TestBackupConcurrentGC ./internal/engine
	$(GO) test -count=50 -run TestConcurrentReadersDuringInserts ./internal/memtable

# The "one of each" ratchet: each rule and its reason is written in
# scripts/forkcount.sh, the file that enforces it.
forkcount:
	scripts/forkcount.sh

# Regenerate experiment_runs.txt, the paper figures' record (~4 min);
# `git diff --exit-code experiment_runs.txt` afterwards shows whether a
# change moved any cell. The benchmark itself is bench/run.sh.
figures:
	scripts/figures.sh

# Tier-1 gate (with the gofmt check of `build`) plus the stress
# suites, the bench smoke, the benchmark
# module's own vet and tests, the flake gate (which holds the
# concurrency suite) and the fork ratchet; this is the bar every PR
# must clear. Each stress line adds repetition (-count=2) to what
# `race` runs once. `race` is where the six recovery configurations
# of internal/harness/contract.go run under the race detector: the
# crash-point explorer (every boundary, with its backup → restore
# probe), the 200 fault schedules, the 60-seed backup sweep, the two
# crash-cut tests and the §5.2 consistency test.
verify: build forkcount test race obsstress readstress stallstress bench-smoke bench-check flakegate
