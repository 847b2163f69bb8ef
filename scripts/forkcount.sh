#!/usr/bin/env sh
# forkcount.sh — ratchet on the engine's executor forks (ROADMAP item 2:
# one execution path). Counts `opts.AsyncCompaction` in the non-test
# sources of internal/engine and fails when there are more than the
# number checked in beside this script (scripts/forkcount.max). A PR
# that removes forks lowers that number in the same commit; nothing may
# raise it.
set -eu
cd "$(dirname "$0")/.."
max=$(cat scripts/forkcount.max)
n=$(ls internal/engine/*.go | grep -v '_test\.go$' | xargs cat | grep -c 'opts\.AsyncCompaction' || true)
if [ "$n" -gt "$max" ]; then
	echo "forkcount: $n occurrences of opts.AsyncCompaction in internal/engine, at most $max allowed:" >&2
	grep -n 'opts\.AsyncCompaction' internal/engine/*.go | grep -v '_test\.go:' >&2
	exit 1
fi
echo "forkcount: $n of $max"
