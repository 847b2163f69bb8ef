// Command bench is the repository's benchmark: six named workloads
// over the NobLSM stack, measured on two clocks in one run. The virtual
// clock gives the paper's numbers (µs/op, tails, amplification), exact
// for a seed; the host clock gives the Go engine's own speed. README.md
// documents the workloads, the metrics and how they interact.
//
//	go run . -workload fill -seed 1            (in bench/; or bash bench/run.sh from the root)
//	go run . -workload fill -seed 1 -trace 1   per-layer ledger + trace-fill.json
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// traceDir is where a traced run writes trace-<workload>.json: beside
// the binary run.sh builds, and ignored by git.
const traceDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "measure for at least this many host seconds (at least 4 reps)")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes .bench_build/trace-<workload>.json")
		quick   = flag.Bool("quick", false, "the tests' sizes: a thousand operations per workload on the 20 k-record geometry")
		out     = flag.String("out", "", "result file to write; an existing one gains or replaces this workload")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		printM  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		check   = flag.Bool("crosscheck", false, "check that fill reproduces harness.RunFig4's NobLSM µs/op exactly, then exit")
	)
	flag.Parse()

	if *printM {
		b, err := json.MarshalIndent(manifest(), "", "  ")
		if err != nil {
			fatal(err.Error())
		}
		fmt.Println(string(b))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *check {
		if err := crossCheck(os.Stdout, *seed, *quick); err != nil {
			fatal(err.Error())
		}
		return
	}

	if *name == "all" {
		// One process per workload: host_peak_rss_mb is the process's
		// high-water mark and must not inherit another workload's.
		if err := runEachInOwnProcess(); err != nil {
			fatal(err.Error())
		}
		return
	}
	var todo []*workload
	for _, w := range workloads(*quick) {
		if w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Sprintf("unknown workload %q; have %s, all", *name, strings.Join(workloadNames(), ", ")))
	}
	for _, w := range todo {
		var (
			res *workloadResult
			err error
		)
		if *trace == 1 {
			res, err = runTraced(w, *seed, filepath.Join(traceDir, "trace-"+w.name+".json"))
		} else {
			res, err = runUntraced(w, *seed, *seconds)
		}
		if err != nil {
			fatal(w.name + ": " + err.Error())
		}
		res.Quick = *quick
		res.print(os.Stdout)
		if *out != "" {
			if err := mergeResult(*out, res); err != nil {
				fatal(err.Error())
			}
		}
		// The driver reads the last line of standard output.
		line, err := json.Marshal(res.summary(*trace == 1))
		if err != nil {
			fatal(err.Error())
		}
		fmt.Println(string(line))
	}
}

// runEachInOwnProcess runs this command once per workload, with the
// flags it was given.
func runEachInOwnProcess() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(os.Args[1:], "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name)
	}
	return names
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}
