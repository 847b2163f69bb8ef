#!/usr/bin/env sh
# forkcount.sh — ratchet on the engine's executor seam. The inline and
# the goroutine executor run one work loop behind one memtable handoff
# (internal/engine/scheduler.go); four rules over the non-test sources
# of internal/engine keep it that way:
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
[ "$fail" -eq 0 ] || exit 1
echo "forkcount: $n of $max executor forks, no unlock parameter, $r rotation, executor seam inside scheduler.go"
