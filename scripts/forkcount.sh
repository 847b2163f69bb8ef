#!/usr/bin/env sh
# forkcount.sh — ratchet on the engine's executor seam, on who ends a
# file's life, on how a write gets in, on where a counter lives, on
# how a compaction merges, on how a fault is met and on how a point
# lookup walks.
# The inline and the goroutine executor run one work loop behind one
# memtable handoff
# (internal/engine/scheduler.go); four rules over the non-test sources
# of internal/engine keep it that way, a fifth, over internal/engine
# and internal/core, keeps the unlinking in one file, and a sixth keeps
# the write path at one entry:
#
#   - `opts.AsyncCompaction` may occur at most scripts/forkcount.max
#     times. The one occurrence left is where Open picks the executor;
#     nothing may raise the number.
#   - no function takes an `unlock bool`: a heavy section asks the
#     scheduler (db.unlocked), not its caller, whether db.mu may drop.
#   - `memSeed++` occurs once, in parkMemtable: nobody rotates a
#     memtable by hand.
#   - `sched.goroutine`, the executor choice, appears in scheduler.go
#     and in Open's one assignment only: work outside the scheduler
#     does not know which executor runs it.
#   - a table, log or manifest of a live store is unlinked, and a cached
#     table handle closed, in internal/engine/disposal.go only:
#     elsewhere `fs.Remove(` occurs in checkpoint.go alone (its export
#     directories) and never on a TableName/LogName/ManifestName, and
#     `tcache.evict(` in EvictTable alone (the fault-injection hook);
#     internal/core, which decides when a shadow is released, names no
#     `Remove`, no `Pin(` and nothing `deferred`.
#   - a record is appended to the store's log (`db.wal.AddRecord(`) once
#     and room is made for it (a call of `makeRoomForWrite(`) once, both
#     in writequeue.go: every write passes the group-commit queue and
#     the governor's admission, and none appends beside them.
#
# A seventh rule, over the non-test sources of internal/harness, keeps
# its recovery checks on one stack:
#
#   - `vfs.NewCrashFS(` and `vfs.NewFaultFS(` occur once each, in
#     newStack (contract.go), the one stack builder: a driver configures
#     a mount, it does not build its own stack.
#
# An eighth rule keeps the network service retired:
#
#   - internal/server holds wire/ and nothing else: no server, client
#     or router package comes back beside it.
#   - no .go file of the root module imports noblsm/internal/server/wire,
#     so its one importer is bench/probes.go (a module of its own),
#     which times its encoder and decoder.
#
# A ninth rule keeps the configuration structs to what some caller
# sets:
#
#   - every field of engine.Options, ext4.Config, ssd.Config and
#     version.PickerOptions is assigned (`.Field =`, or a subfield of
#     it) in some .go file other than a test and the file that defines
#     the struct — bench/ counts — or is listed, as
#     `<pkg>.<Type>.<Field>` with its reason, in scripts/options.allow.
#     A listed field must exist and must have no such assignment, so
#     the list only shrinks. The match is by name: a same-named field
#     of another struct counts.
#
# A tenth rule keeps one counter surface, the metrics registry:
#
#   - in non-test Go, `type Stats struct` occurs once, in
#     internal/ext4/ext4.go (FS.Stats, which bench/rep.go still reads):
#     no component copies its registry counters into a struct again.
#   - outside internal/obs/stall.go and bench/, no non-test Go file
#     spells out `"engine.stall.`: the stall ledger's names are built by
#     obs.StallCause.Metric, so a consumer cannot drift from them.
#
# An eleventh rule keeps one pin, the readers':
#
#   - in non-test internal/engine no identifier `ckptMu`, `ckpts` or
#     `checkpointRef` occurs, and disposal.go contains no `ckpt`: a
#     backup links what it exports while db.mu holds its cut, so it pins
#     nothing and the disposal decision never asks about exports.
#
# A twelfth rule keeps one compaction data path:
#
#   - non-test internal/engine holds one `merged.First()`: the merge
#     stage's loop (compactionstages.go) is the one merge loop, and no
#     serial loop comes back beside the stages.
#   - non-test internal/sstable holds one block-cut rule,
#     `EstimatedSize() >=`, in RawBlock.Add: a flush's Builder and a
#     compaction's merge stage cut data blocks through the same code.
#
# A thirteenth rule keeps one version replay:
#
#   - in non-test internal/engine, `version.NewBuilder(` occurs only in
#     recoveryplan.go and in logAndApply, and `version.DecodeEdit(`
#     twice: in classifyManifest, which decodes a manifest image for
#     Open's recovery and Repair, and in decodedEdits (heal.go), which
#     decodes the records of the manifest in use for a heal. Each hands
#     its edits to planRecovery; no second replay of them comes back.
#
# A fourteenth rule keeps one slab source per build:
#
#   - in non-test internal/, `syscall.Mmap` occurs once, in
#     internal/ext4/slab_mmap.go, and `new(slab)` once, in
#     internal/ext4/slab_heap.go: the page cache takes its memory from
#     newSlab alone, mapped off the heap or, in race and non-unix
#     builds, allocated on it.
#
# A fifteenth rule keeps one table walker:
#
#   - non-test internal/engine declares one method named First,
#     engine.Iterator's (iterator.go): a scan composes iterator.Concat
#     and iterator.Merging, and no level walker of the engine's own
#     comes back beside them.
#
# A sixteenth rule keeps one undo rule:
#
#   - in non-test internal/engine, `planRecovery(` is called only from
#     recovery.go, repair.go and heal.go, and heal.go names no
#     `Overlapping(`: Open's recovery, Repair and a self-healing read
#     decide what to undo through the one planner, and no rollback rule
#     of a heal's own comes back. internal/core names no `DepFor` and
#     no `plan any`: the tracker carries no plan for a heal.
#
# A seventeenth rule keeps one filesystem seam:
#
#   - hard links, the check_commit/is_committed syscalls, the page-cache
#     view and the peek are methods of vfs.FS and vfs.File, not optional
#     interfaces found at run time. So non-test Go outside bench/ holds
#     no type assertion to an interface that internal/vfs or
#     internal/core declares (`.(vfs.X)`, `.(core.X)`, or `.(X)` inside
#     those packages) but one: CrashFS's `.(CommitNotifier)` in
#     internal/vfs/crashfs.go, a hook only ext4 offers. Nor does it name
#     `ErrUnsupported` or `LinkOrCopy`: no wrapper refuses a surface and
#     no caller falls back to copying. A wrapper that dropped a surface
#     would not compile.
#
# An eighteenth rule keeps one failure rule:
#
#   - in non-test internal/engine, `vfs.IsTransient(` and `bgBackoff(`
#     occur only in bgerror.go, and `bgMaxRetries` only in bgerror.go
#     and writequeue.go: every read, compaction and background write
#     that meets a fault asks tally.next whether to heal, back off or
#     give up, and no retry loop of its own comes back beside it. The
#     WAL append's budget across writes (writequeue.go) is the one
#     failure path outside the rule.
#
# A nineteenth rule keeps one point lookup:
#
#   - in non-test internal/engine, `.probeLevel(` and `.memGet(` occur
#     once each, in resolve (readstate.go), and `chargeSeek(` is called
#     from chargeLookups alone: a Get is a batch of one through the walk
#     a MultiGet runs, and no level loop, memtable probe or seek charge
#     of its own comes back beside it.
set -eu
cd "$(dirname "$0")/.."
src=$(ls internal/engine/*.go | grep -v '_test\.go$')
count() { cat $src | grep -c "$1" || true; }
fail=0
max=$(cat scripts/forkcount.max)
n=$(count 'opts\.AsyncCompaction')
if [ "$n" -gt "$max" ]; then
	echo "forkcount: $n occurrences of opts.AsyncCompaction in internal/engine, at most $max allowed:" >&2
	grep -n 'opts\.AsyncCompaction' $src >&2
	fail=1
fi
if grep -n 'unlock bool' $src >&2; then
	echo "forkcount: the unlock parameter is back; use db.unlocked" >&2
	fail=1
fi
r=$(count 'memSeed++')
if [ "$r" -ne 1 ]; then
	echo "forkcount: $r hand-rolled memtable rotations (memSeed++), want the one in parkMemtable:" >&2
	grep -n 'memSeed++' $src >&2
	fail=1
fi
seam=$(grep -nE '\.goroutine([^[:alnum:]_]|$)' $src |
	grep -v -e '^internal/engine/scheduler\.go:' -e 'sched\.goroutine = opts\.AsyncCompaction$' || true)
if [ -n "$seam" ]; then
	echo "forkcount: sched.goroutine is read outside scheduler.go:" >&2
	echo "$seam" >&2
	fail=1
fi
others=$(echo "$src" | grep -v '/disposal\.go$')
core=$(ls internal/core/*.go | grep -v '_test\.go$')
unlinks=$(
	grep -n 'fs\.Remove(' $others | grep -v '^internal/engine/checkpoint\.go:' || true
	grep -n 'fs\.Remove(.*\(Table\|Log\|Manifest\)Name(' $others || true
	awk '/^func /{fn=$0} /tcache\.evict\(/ && fn !~ /\) EvictTable\(/ {print FILENAME":"FNR":"$0}' $others
	grep -Hn 'Remove\|Pin(\|deferred' $core || true
)
if [ -n "$unlinks" ]; then
	echo "forkcount: a file's life ends outside internal/engine/disposal.go:" >&2
	echo "$unlinks" >&2
	fail=1
fi
entries=$(grep -n -e 'db\.wal\.AddRecord(' -e '\.makeRoomForWrite(' $src || true)
if [ "$(echo "$entries" | grep -c 'db\.wal\.AddRecord(')" -ne 1 ] ||
	[ "$(echo "$entries" | grep -c '\.makeRoomForWrite(')" -ne 1 ] ||
	echo "$entries" | grep -qv '^internal/engine/writequeue\.go:'; then
	echo "forkcount: want one db.wal.AddRecord( and one call of makeRoomForWrite(, both in writequeue.go:" >&2
	echo "$entries" >&2
	fail=1
fi
harness=$(ls internal/harness/*.go | grep -v '_test\.go$')
mounts=$(awk '/^func /{fn=$0} /vfs\.New(Crash|Fault)FS\(/ {print FILENAME":"FNR":"fn": "$0}' $harness)
if [ "$(echo "$mounts" | grep -c 'vfs\.NewCrashFS(')" -ne 1 ] ||
	[ "$(echo "$mounts" | grep -c 'vfs\.NewFaultFS(')" -ne 1 ] ||
	echo "$mounts" | grep -qv '^internal/harness/contract\.go:[0-9]*:func newStack('; then
	echo "forkcount: want one vfs.NewCrashFS( and one vfs.NewFaultFS(, both in newStack (internal/harness/contract.go):" >&2
	echo "$mounts" >&2
	fail=1
fi
ring=$(ls -A internal/server)
if [ "$ring" != wire ]; then
	echo "forkcount: internal/server may hold wire/ only, it holds:" >&2
	echo "$ring" >&2
	fail=1
fi
wireusers=$(find . -path ./bench -prune -o -path './.*' -prune -o -name '*.go' -print |
	xargs grep -l '"noblsm/internal/server/wire"' || true)
if [ -n "$wireusers" ]; then
	echo "forkcount: the root module imports internal/server/wire:" >&2
	echo "$wireusers" >&2
	fail=1
fi
allowed=$(grep -v '^#' scripts/options.allow | cut -f1)
known=""
nfields=0
while read -r conf file typ; do
	fields=$(awk -v t="$typ" '$0 ~ "^type "t" struct" {s=1; next} s && /^}/ {exit}
		s && /^\t[A-Z]/ {for (i = 1; i <= NF; i++) {n = $i; sub(/,$/, "", n); print n; if ($i !~ /,$/) break}}' "$file")
	setters=$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path "./$file" -print)
	for f in $fields; do
		nfields=$((nfields + 1))
		known="$known
$conf.$f"
		listed=$(echo "$allowed" | grep -cxF "$conf.$f" || true)
		if grep -qE "\.$f(\.[[:alnum:]_]+)*[[:space:]]*(,[^=]*)?(=[^=]|\+=|-=|\+\+|--)" $setters; then
			if [ "$listed" -ne 0 ]; then
				echo "forkcount: $conf.$f is assigned outside tests; drop it from scripts/options.allow" >&2
				fail=1
			fi
		elif [ "$listed" -eq 0 ]; then
			echo "forkcount: nothing outside tests and $file assigns $conf.$f; delete it or list it, with its reason, in scripts/options.allow" >&2
			fail=1
		fi
	done
done <<EOF
engine.Options internal/engine/options.go Options
ext4.Config internal/ext4/ext4.go Config
ssd.Config internal/ssd/ssd.go Config
version.PickerOptions internal/version/picker.go PickerOptions
EOF
for f in $allowed; do
	if ! echo "$known" | grep -qxF "$f"; then
		echo "forkcount: scripts/options.allow lists $f, which is not a configuration field the ninth rule covers" >&2
		fail=1
	fi
done
gosrc=$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print)
structs=$(echo "$gosrc" | xargs grep -n '^type Stats struct' || true)
if [ "$(echo "$structs" | grep -c .)" -ne 1 ] || echo "$structs" | grep -qv '^\./internal/ext4/ext4\.go:'; then
	echo "forkcount: want one type Stats struct in non-test Go, in internal/ext4/ext4.go:" >&2
	echo "$structs" >&2
	fail=1
fi
stallnames=$(echo "$gosrc" | grep -v -e '^\./bench/' -e '^\./internal/obs/stall\.go$' |
	xargs grep -n '"engine\.stall\.' || true)
if [ -n "$stallnames" ]; then
	echo "forkcount: stall ledger names spelled outside internal/obs/stall.go; use obs.StallCause.Metric:" >&2
	echo "$stallnames" >&2
	fail=1
fi
pins=$(
	grep -nwE 'ckptMu|ckpts|checkpointRef' $src || true
	grep -Hn 'ckpt' internal/engine/disposal.go || true
)
if [ -n "$pins" ]; then
	echo "forkcount: an export pins files again; disposal consults readers alone:" >&2
	echo "$pins" >&2
	fail=1
fi
loops=$(grep -n 'merged\.First()' $src || true)
if [ "$(echo "$loops" | grep -c .)" -ne 1 ]; then
	echo "forkcount: want one merge loop (merged.First()) in internal/engine:" >&2
	echo "$loops" >&2
	fail=1
fi
cuts=$(ls internal/sstable/*.go | grep -v '_test\.go$' | xargs grep -n 'EstimatedSize() >=' || true)
if [ "$(echo "$cuts" | grep -c .)" -ne 1 ]; then
	echo "forkcount: want one block-cut rule (EstimatedSize() >=) in internal/sstable:" >&2
	echo "$cuts" >&2
	fail=1
fi
builders=$(awk '/^func /{fn=$0} /version\.NewBuilder\(/ {print FILENAME":"FNR":"fn": "$0}' $src |
	grep -v -e '^internal/engine/recoveryplan\.go:' -e ':func (db \*DB) logAndApply(' || true)
decodes=$(awk '/^func /{fn=$0} /version\.DecodeEdit\(/ {print FILENAME":"FNR":"fn": "$0}' $src)
if [ -n "$builders" ] || [ "$(echo "$decodes" | grep -c .)" -ne 2 ] ||
	[ "$(echo "$decodes" | grep -c -e ':func classifyManifest(' -e ':func (db \*DB) decodedEdits(')" -ne 2 ]; then
	echo "forkcount: want version.NewBuilder( only in recoveryplan.go and logAndApply, and version.DecodeEdit( in classifyManifest and decodedEdits only, in internal/engine:" >&2
	echo "$builders" >&2
	echo "$decodes" >&2
	fail=1
fi
internal=$(find internal -name '*.go' ! -name '*_test.go')
maps=$(echo "$internal" | xargs grep -n 'syscall\.Mmap' || true)
heaps=$(echo "$internal" | xargs grep -n 'new(slab)' || true)
if [ "$(echo "$maps" | grep -c .)" -ne 1 ] || echo "$maps" | grep -qv '^internal/ext4/slab_mmap\.go:' ||
	[ "$(echo "$heaps" | grep -c .)" -ne 1 ] || echo "$heaps" | grep -qv '^internal/ext4/slab_heap\.go:'; then
	echo "forkcount: want one syscall.Mmap (internal/ext4/slab_mmap.go) and one new(slab) (internal/ext4/slab_heap.go) in internal/:" >&2
	echo "$maps" >&2
	echo "$heaps" >&2
	fail=1
fi
firsts=$(grep -n '^func (.*) First()' $src || true)
if [ "$(echo "$firsts" | grep -c .)" -ne 1 ] ||
	echo "$firsts" | grep -qv '^internal/engine/iterator\.go:[0-9]*:func (it \*Iterator) First()'; then
	echo "forkcount: want one First method in internal/engine, engine.Iterator's; compose iterator.Concat and Merging:" >&2
	echo "$firsts" >&2
	fail=1
fi
undos=$(
	grep -n 'planRecovery(' $src | grep -v -e '^internal/engine/\(recovery\|repair\|heal\)\.go:' -e ':func planRecovery(' || true
	grep -Hn 'Overlapping(' internal/engine/heal.go || true
	grep -Hn 'DepFor\|plan any' $core || true
)
if [ -n "$undos" ]; then
	echo "forkcount: want planRecovery( called from recovery.go, repair.go and heal.go only, no Overlapping( in heal.go, and no DepFor or plan any in internal/core:" >&2
	echo "$undos" >&2
	fail=1
fi
seamsrc=$(ls internal/vfs/*.go internal/core/*.go | grep -v '_test\.go$')
ifaces=$(sed -n 's/^type \([[:alnum:]_]*\) \(interface\|= vfs\.\).*/\1/p' $seamsrc | paste -sd'|' -)
seams=$(
	echo "$gosrc" | grep -v '^\./bench/' | xargs grep -nE "\.\((vfs|core)\.($ifaces)\)" || true
	grep -nE "\.\(($ifaces)\)" $seamsrc | grep -v '^internal/vfs/crashfs\.go:.*\.(CommitNotifier)' || true
	echo "$gosrc" | grep -v '^\./bench/' | xargs grep -nw 'ErrUnsupported\|LinkOrCopy' || true
)
if [ -n "$seams" ]; then
	echo "forkcount: a filesystem surface is optional again; call the vfs.FS or vfs.File method (only CrashFS asserts CommitNotifier):" >&2
	echo "$seams" >&2
	fail=1
fi
retries=$(
	grep -n 'vfs\.IsTransient(\|bgBackoff(' $src | grep -v '^internal/engine/bgerror\.go:' || true
	grep -n 'bgMaxRetries' $src | grep -v '^internal/engine/\(bgerror\|writequeue\)\.go:' || true
)
if [ -n "$retries" ]; then
	echo "forkcount: a retry loop outside the failure rule; ask absorbLocked or absorbRead (bgerror.go):" >&2
	echo "$retries" >&2
	fail=1
fi
lookups=$(awk '/^func /{fn=$0} /\.(probeLevel|memGet)\(|chargeSeek\(/ {print FILENAME":"FNR":"fn": "$0}' $src |
	grep -v -e ':func (db \*DB) chargeSeek(.*: func (db \*DB) chargeSeek(' || true)
if [ "$(echo "$lookups" | grep -c '\.probeLevel(')" -ne 1 ] || [ "$(echo "$lookups" | grep -c '\.memGet(')" -ne 1 ] ||
	echo "$lookups" | grep -e '\.probeLevel(' -e '\.memGet(' | grep -qv ':func (db \*DB) resolve(' ||
	echo "$lookups" | grep 'chargeSeek(' | grep -qv ':func (db \*DB) chargeLookups('; then
	echo "forkcount: want one .probeLevel( and one .memGet(, both in resolve, and chargeSeek( called from chargeLookups only, in internal/engine:" >&2
	echo "$lookups" >&2
	fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "forkcount: $n of $max executor forks, no unlock parameter, $r rotation, executor seam inside scheduler.go, unlinks inside disposal.go, one write entry in writequeue.go, one stack builder in internal/harness, no service beside internal/server/wire, $nfields configuration fields each set by a caller or allowed, one Stats struct (ext4), stall ledger names in internal/obs/stall.go, one pin (readers'), one merge loop, one block-cut rule, one version replay, one slab source per build, one table walker, one undo rule, one filesystem seam, one failure rule, one point lookup"
