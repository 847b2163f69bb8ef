package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"noblsm/internal/policy"
)

// runTraced is the traced run: never used for end-to-end numbers. It
// runs the workload once untraced (the baseline tracing overhead is
// measured against), once with a root span per operation and the
// tracedFS seam, then the workload's reference pass and the layer
// probes, and reports the per-layer ledger.
func runTraced(w *workload, seed int64, tracePath string) (*workloadResult, error) {
	out := newResult(w, seed)
	out.Traced = true
	ref := references{}
	var err error
	if ref.plain, err = runRep(w, repConfig{seed: seed, variant: policy.NobLSM}); err != nil {
		return nil, err
	}
	tr := newTracer(w.async, w.ops+3*w.openOps)
	traced, err := runRep(w, repConfig{seed: seed, variant: policy.NobLSM, tr: tr})
	if err != nil {
		return nil, err
	}
	if !w.async {
		// The seam must be transparent: a wrapper that hid a syscall or
		// the zero-copy read path would measure a different system.
		if err := sameAcrossReps([]*repResult{ref.plain, traced}); err != nil {
			return nil, fmt.Errorf("tracing changed the run: %w", err)
		}
	}
	reps := []*repResult{ref.plain, traced}
	if w.refLevelDB {
		if ref.leveldb, err = runRep(w, repConfig{seed: seed, variant: policy.LevelDB, closedOnly: true}); err != nil {
			return nil, err
		}
		reps = append(reps, ref.leveldb)
	}
	if w.refGovernor {
		if ref.governor, err = runRep(w, repConfig{seed: seed, variant: policy.NobLSM, governor: true}); err != nil {
			return nil, err
		}
		reps = append(reps, ref.governor)
	}
	probes, err := runProbes(w)
	if err != nil {
		return nil, err
	}
	ref.genShare = generatorNsPerOp(w, seed) * float64(ref.plain.measuredOps) / (ref.plain.wallS * 1e9)

	// The end-to-end numbers of this run's untraced rep, kept for the
	// ones BENCHMARK.json lists as per-layer; a result file's end-to-end
	// section still comes from the untraced run (mergeResult).
	out.fill(w, []*repResult{ref.plain})
	out.OpsAttempted, out.OpsFailed, out.FirstFailure = 0, 0, ""
	for _, r := range reps {
		s := r.summary()
		if s.Noisy {
			out.NoisyReps++
		}
		out.Reps = append(out.Reps, s)
		out.OpsAttempted += r.attempted
		out.OpsFailed += r.failed
		if out.FirstFailure == "" {
			out.FirstFailure = r.firstFailure
		}
	}
	ref.noisy = out.NoisyReps
	out.MeasuredOps = traced.measuredOps
	out.PerLayer = map[string]metricValue{}
	values := ledger(w, traced, tr, probes, ref)
	for _, d := range perLayer {
		out.PerLayer[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit, Better: d.Better}
	}

	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(tracePath, w.name, seed); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return out, nil
}

// generatorNsPerOp times the input generator alone — the stream, the
// key and the value each operation needs — so the host numbers can say
// how much of them is the generator and not the store.
func generatorNsPerOp(w *workload, seed int64) float64 {
	const n = 20_000
	st := w.stream(seed, 0)
	var buf []byte
	start := time.Now()
	for i := 0; i < n; i++ {
		o := st.next()
		probeSink += len(w.key(o.key))
		if o.kind == opPut {
			buf = w.value(buf, o.key, 0)
		}
	}
	return float64(time.Since(start)) / n
}
