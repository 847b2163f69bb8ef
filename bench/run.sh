#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash bench/run.sh --workload fill --seed 1 --seconds 6 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go's build cache, module cache and telemetry included).
# The benchmark is a module of its own (bench/go.mod) that replaces
# `noblsm` with the checkout around it, so without the repository's
# sources the build fails and nothing is measured.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/noblsm-bench" .)
cd "$root"
# Memory a rep frees stays mapped (MADV_FREE instead of MADV_DONTNEED),
# so the next rep reuses it instead of faulting a gigabyte of pages back
# in: on this virtual machine those faults were 15-25 % of a rep's host
# time and varied twofold from rep to rep. The first rep or two of a run
# still pay them; the host numbers take each lap from its fastest rep.
export GODEBUG=madvdontneed=0
exec "$build/noblsm-bench" "$@"
