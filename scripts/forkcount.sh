#!/usr/bin/env sh
# forkcount.sh — ratchet on the engine's executor seam, on who ends a
# file's life and on how a write gets in. The inline and the goroutine
# executor run one work loop behind one memtable handoff
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
[ "$fail" -eq 0 ] || exit 1
echo "forkcount: $n of $max executor forks, no unlock parameter, $r rotation, executor seam inside scheduler.go, unlinks inside disposal.go, one write entry in writequeue.go"
