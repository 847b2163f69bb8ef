package main

import (
	"fmt"
	"io"
	"sort"

	"noblsm/internal/dbbench"
	"noblsm/internal/harness"
	"noblsm/internal/policy"
	"noblsm/internal/vclock"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// compareFiles prints one row per (workload, end-to-end metric) present
// in both result files, which must have run the same seed: both values,
// b as a ratio of a, the metric's same-seed bound and a verdict. It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-20s %16s %16s %9s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra.Seed != rb.Seed || ra.Quick != rb.Quick {
			return false, fmt.Errorf("%s: the two files ran different inputs (seed %d quick %v, seed %d quick %v)",
				name, ra.Seed, ra.Quick, rb.Seed, rb.Quick)
		}
		for _, d := range endToEnd {
			ma, okA := ra.EndToEnd[d.Name]
			mb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, ma, mb)
			if v == verdictWorse {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-11s %-20s %16.6f %16.6f %9.4f %5.0f%%  %s\n",
				name, d.Name, ma.Value, mb.Value, mb.Value/ma.Value, 100*d.Same, v)
		}
	}
	return anyWorse, nil
}

// verdict judges b against a. A host metric is put together from the
// fastest laps of several reps; when the two fastest reps of either
// side are further apart than the bound, the host was not steady enough
// for a settled number and the row is unresolved, not unchanged.
func verdict(d metricDef, a, b metricValue) string {
	if a.Value == b.Value {
		return verdictSame
	}
	if repGap(d, a) > d.Same || repGap(d, b) > d.Same {
		return verdictUnresolved
	}
	worse := (b.Value - a.Value) / a.Value // share by which b is worse
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case worse > d.Same:
		return verdictWorse
	case worse < -d.Same:
		return verdictBetter
	}
	return verdictSame
}

// repGap is the distance between the two best reps, as a share of the
// best. Metrics without per-rep values (the exact ones) have none.
func repGap(d metricDef, m metricValue) float64 {
	if len(m.Reps) < 2 {
		return 0
	}
	s := append([]float64(nil), m.Reps...)
	sort.Float64s(s)
	if d.Better == higher {
		return (s[len(s)-1] - s[len(s)-2]) / s[len(s)-1]
	}
	return (s[1] - s[0]) / s[0]
}

// crossCheck proves the bench's own stack assembly and scheduler did
// not drift from the paper harness: fill's closed-loop phase must
// reproduce the NobLSM fillrandom µs/op harness.RunFig4 reports for
// the same ops and seed (its first phase: NewStore + RunDBBench), to
// the last bit.
func crossCheck(out io.Writer, seed int64, quick bool) error {
	w := workloads(quick)[0]
	r, err := runRep(w, repConfig{seed: seed, variant: policy.NobLSM, closedOnly: true})
	if err != nil {
		return err
	}
	// RunFig4's first phase, without the three that follow it.
	tl := vclock.NewTimeline(0)
	st, err := harness.NewStore(tl, policy.NobLSM, w.options())
	if err != nil {
		return err
	}
	ref, err := harness.RunDBBench(st, tl.Now(), dbbench.FillRandom, w.ops, valueSize, 1, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fill %d ops seed %d: bench %.9f us/op, harness %.9f us/op\n",
		w.ops, seed, r.closedVirtUsPerOp, ref.MicrosPerOp)
	if r.closedVirtUsPerOp != ref.MicrosPerOp {
		return fmt.Errorf("bench and harness disagree on fill's virtual time")
	}
	return nil
}
