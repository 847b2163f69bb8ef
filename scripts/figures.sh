#!/usr/bin/env sh
# figures.sh — regenerate experiment_runs.txt: the seven commands of
# EXPERIMENTS.md (seed 42, virtual time), ~4 min. Nothing moved if
# `make figures && git diff --exit-code experiment_runs.txt` is clean.
set -eu
cd "$(dirname "$0")/.."
fig() {
	echo "=== $1 ==="
	shift
	go run "$@"
}
{
	fig "syncstudy (Fig 2a)" ./cmd/syncstudy; echo
	fig "Fig 2b" ./cmd/dbbench -fig 2b -ops 50000; echo
	fig "Table 1" ./cmd/dbbench -table 1 -ops 100000; echo
	fig "Fig 4" ./cmd/dbbench -fig 4 -ops 40000; echo
	fig "Fig 5a" ./cmd/ycsbbench -threads 1 -records 60000; echo
	fig "Fig 5b" ./cmd/ycsbbench -threads 4 -records 60000; echo
	fig "crashtest" ./cmd/crashtest -ops 50000
	echo ALLDONE
} >experiment_runs.txt
