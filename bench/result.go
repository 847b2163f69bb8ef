package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"

	"noblsm/internal/policy"
)

// metricValue is one reported number. Reps holds the per-rep values of
// a host metric, so a reader can see the spread behind the headline.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Better string    `json:"better,omitempty"`
	Reps   []float64 `json:"reps,omitempty"`
}

type environment struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

type sizes struct {
	Records       int64      `json:"records"`
	Preload       int64      `json:"preload_ops"`
	ClosedOps     int64      `json:"closed_loop_ops"`
	OpenOps       int64      `json:"open_loop_ops_per_rate"`
	Clients       int        `json:"clients"`
	OpenRatesKops [3]float64 `json:"open_rates_kops"`
	OpenLimitUs   float64    `json:"open_limit_p99_us"`
}

type openDetail struct {
	RateKops  float64 `json:"rate_kops"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
	MaxLagUs  float64 `json:"generator_max_lag_us"`
	EndLagUs  float64 `json:"end_lag_us"`
	Sustained bool    `json:"sustained"`
}

type repSummary struct {
	SetupS        float64 `json:"setup_s"`
	WallS         float64 `json:"measured_wall_s"`
	CPUS          float64 `json:"measured_cpu_s"`
	CalibBeforeMs float64 `json:"calib_before_ms"`
	CalibAfterMs  float64 `json:"calib_after_ms"`
	Noisy         bool    `json:"noisy,omitempty"`
}

// workloadResult is everything one invocation measured on one
// workload. A result file holds one per workload.
type workloadResult struct {
	Workload     string                 `json:"workload"`
	Why          string                 `json:"why"`
	Seed         int64                  `json:"seed"`
	Quick        bool                   `json:"quick,omitempty"`
	Traced       bool                   `json:"traced,omitempty"`
	Env          environment            `json:"env"`
	Sizes        sizes                  `json:"sizes"`
	Reps         []repSummary           `json:"reps"`
	NoisyReps    int                    `json:"noisy_reps"`
	MeasuredOps  int64                  `json:"measured_ops_per_rep"`
	OpsAttempted int64                  `json:"ops_attempted"`
	OpsFailed    int64                  `json:"ops_failed"`
	FirstFailure string                 `json:"first_failure,omitempty"`
	P9999Samples int                    `json:"virt_p9999_samples"`
	P9999Beyond  int                    `json:"virt_p9999_samples_beyond"`
	Open         [3]openDetail          `json:"open_loop"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

func currentEnv() environment {
	e := environment{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func newResult(w *workload, seed int64) *workloadResult {
	return &workloadResult{
		Workload: w.name, Why: w.why, Seed: seed, Env: currentEnv(),
		Sizes: sizes{w.records, w.preload, w.ops, w.openOps, w.clients, w.openRates, w.openLimitUs},
	}
}

// runReps is how many reps a run makes. It is fixed: the host numbers
// take every lap from the rep that ran it fastest, an estimate that
// sinks a little with every rep added, so a run that made more reps on
// a bad day would read differently for that alone. More reps follow
// only while the measured regions add up to less than --seconds, which
// at the sizes in workloads.go they never do on the machine these were
// sized on.
const (
	runReps = 4
	maxReps = 8
)

// runUntraced measures the end-to-end metrics over runReps reps on
// identically rebuilt stores.
func runUntraced(w *workload, seed int64, seconds float64) (*workloadResult, error) {
	out := newResult(w, seed)
	var all []*repResult
	measured := 0.0
	for len(all) < runReps || (measured < seconds && len(all) < maxReps) {
		r, err := runRep(w, repConfig{seed: seed, variant: policy.NobLSM})
		if err != nil {
			return nil, err
		}
		sum := r.summary()
		if sum.Noisy {
			out.NoisyReps++
		}
		out.Reps = append(out.Reps, sum)
		all = append(all, r)
		measured += r.wallS
	}
	if !w.async {
		if err := sameAcrossReps(all); err != nil {
			return nil, err
		}
	}
	out.fill(w, all)
	return out, nil
}

func (r *repResult) summary() repSummary {
	return repSummary{
		SetupS: r.setupS, WallS: r.wallS, CPUS: r.cpuS,
		CalibBeforeMs: r.calibBeforeMs, CalibAfterMs: r.calibAfterMs,
		Noisy: noisy(r.calibBeforeMs, r.calibAfterMs),
	}
}

// sameAcrossReps is the determinism gate: on an inline workload the
// virtual clock, the amplification figures and every registry counter
// are functions of the seed alone. A difference between two reps means
// something other than the seed reached the engine.
func sameAcrossReps(reps []*repResult) error {
	first := reps[0]
	for i, r := range reps[1:] {
		if len(r.setupLaps) != len(first.setupLaps) || len(r.wallLaps) != len(first.wallLaps) {
			return fmt.Errorf("not deterministic: rep 1 ran in %d+%d laps and rep %d in %d+%d",
				len(first.setupLaps), len(first.wallLaps), i+2, len(r.setupLaps), len(r.wallLaps))
		}
		for _, name := range exactMetrics {
			if a, b := first.exact[name], r.exact[name]; a != b {
				return fmt.Errorf("not deterministic: %s is %v in rep 1 and %v in rep %d", name, a, b, i+2)
			}
		}
		names := make([]string, 0, len(first.after.Counters))
		for name := range first.after.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if a, b := first.after.Counters[name], r.after.Counters[name]; a != b {
				return fmt.Errorf("not deterministic: counter %s is %d in rep 1 and %d in rep %d", name, a, b, i+2)
			}
		}
	}
	return nil
}

// fill assembles the end-to-end metrics from the reps. Exact metrics
// are the first rep's (all reps agree; on fill_async, where they
// cannot, the median). The host times, setup_s too, are fastestLaps of
// the reps; host_cpu_us_per_op, which cannot be read per lap without a
// system call in each, is the fastest rep's.
func (out *workloadResult) fill(w *workload, reps []*repResult) {
	out.EndToEnd = map[string]metricValue{}
	per := func(f func(*repResult) float64) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}
	set := func(name string, value float64, all []float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				out.EndToEnd[name] = metricValue{value, d.Unit, d.Better, all}
			}
		}
	}
	for _, name := range exactMetrics {
		all := per(func(r *repResult) float64 { return r.exact[name] })
		if w.async {
			set(name, median(all), all)
		} else {
			set(name, all[0], nil)
		}
	}
	laps := func(f func(*repResult) []float64) [][]float64 {
		v := make([][]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}
	setup := per(func(r *repResult) float64 { return r.setupS })
	set("setup_s", fastestLaps(laps(func(r *repResult) []float64 { return r.setupLaps })), setup)
	kops := per(func(r *repResult) float64 { return float64(r.measuredOps) / r.wallS / 1e3 })
	wall := fastestLaps(laps(func(r *repResult) []float64 { return r.wallLaps }))
	set("host_kops_per_s", float64(reps[0].measuredOps)/wall/1e3, kops)
	cpu := per(func(r *repResult) float64 { return r.cpuS * 1e6 / float64(r.measuredOps) })
	set("host_cpu_us_per_op", slices.Min(cpu), cpu)
	set("host_peak_rss_mb", peakRSSMB(), nil)

	last := reps[len(reps)-1]
	out.MeasuredOps = last.measuredOps
	for _, r := range reps {
		out.OpsAttempted += r.attempted
		out.OpsFailed += r.failed
		if out.FirstFailure == "" {
			out.FirstFailure = r.firstFailure
		}
	}
	out.P9999Samples, out.P9999Beyond = last.p9999Samples, last.p9999Beyond
	for i, o := range last.open {
		out.Open[i] = openDetail{o.kops, o.p50Us, o.p99Us, o.maxLagUs, o.endLagUs, o.sustained}
	}
}

// summary is the object the driver reads from the last line: the
// gated end-to-end metrics of an untraced run, or of a traced run
// everything BENCHMARK.json lists as per-layer, which includes the
// end-to-end metrics too unsteady across seeds to gate.
func (out *workloadResult) summary(traced bool) map[string]interface{} {
	metrics := map[string]map[string]interface{}{}
	put := func(name string, m metricValue) {
		metrics[name] = map[string]interface{}{"value": m.Value, "unit": m.Unit}
	}
	gated, ungated := gatedEndToEnd()
	if traced {
		for _, d := range ungated {
			put(d.Name, out.EndToEnd[d.Name])
		}
		for name, m := range out.PerLayer {
			put(name, m)
		}
	} else {
		for _, d := range gated {
			put(d.Name, out.EndToEnd[d.Name])
		}
	}
	return map[string]interface{}{
		"correct":   out.OpsFailed == 0,
		"attempted": out.OpsAttempted,
		"failed":    out.OpsFailed,
		"metrics":   metrics,
	}
}

// print renders every metric by name with its unit, direction and
// bound.
func (out *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  reps %d (noisy %d)  gomaxprocs %d  nproc %d  %s  commit %s\n",
		out.Workload, out.Seed, len(out.Reps), out.NoisyReps, out.Env.GoMaxProcs, out.Env.NumCPU, out.Env.GoVersion, out.Env.Commit)
	fmt.Fprintf(w, "  ops attempted %d  failed %d  %s\n", out.OpsAttempted, out.OpsFailed, out.FirstFailure)
	for _, d := range endToEnd {
		m, ok := out.EndToEnd[d.Name]
		if !ok {
			continue
		}
		note := ""
		if d.Name == "virt_p9999_us" {
			note = fmt.Sprintf("  (%d samples, %d beyond)", out.P9999Samples, out.P9999Beyond)
		}
		if len(m.Reps) > 0 {
			note += fmt.Sprintf("  reps %.5g", m.Reps)
		}
		gate := fmt.Sprintf("%3.0f%% across seeds", 100*d.Bound)
		if !d.gated {
			gate = "not gated across seeds"
		}
		fmt.Fprintf(w, "  %-20s %14.6f %-7s %-6s is better, bound %3.0f%% at one seed, %s%s\n", d.Name, m.Value, d.Unit, d.Better, 100*d.Same, gate, note)
	}
	if out.EndToEnd != nil {
		for _, o := range out.Open {
			fmt.Fprintf(w, "  open loop %6.1f kops/s: p50 %10.3f us  p99 %12.3f us  generator max lag %12.3f us  end lag %10.3f us  sustained %v\n",
				o.RateKops, o.P50Us, o.P99Us, o.MaxLagUs, o.EndLagUs, o.Sustained)
		}
	}
	for _, d := range perLayer {
		if m, ok := out.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-44s %16.4f %s\n", d.Name, m.Value, d.Unit)
		}
	}
}

// resultFile is a set of workload results: what -out writes and
// -compare reads.
type resultFile struct {
	Schema    int                        `json:"schema"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// mergeResult adds res to the result file at path, replacing what the
// file held for that workload. An untraced and a traced result of one
// workload and seed are two halves of one entry: the end-to-end numbers
// come from the untraced run, the per-layer ledger from the traced one.
func mergeResult(path string, res *workloadResult) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Schema = 1
	if f.Workloads == nil {
		f.Workloads = map[string]*workloadResult{}
	}
	if old := f.Workloads[res.Workload]; old != nil && old.Seed == res.Seed && old.Quick == res.Quick {
		if res.Traced && old.EndToEnd != nil && !old.Traced {
			old.PerLayer = res.PerLayer
			res = old
		} else if !res.Traced && res.PerLayer == nil {
			res.PerLayer = old.PerLayer
		}
	}
	f.Workloads[res.Workload] = res
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fastestLaps adds up, lap by lap, the shortest time any rep took for
// that lap. Every rep does the same work in lap i, and interference on
// a shared host only ever adds time, in bursts shorter than a rep: the
// sum is what a rep takes on an undisturbed host, and it is far
// steadier than the fastest whole rep, which is only as good as the
// quietest two or three seconds in a row the run happened to get.
func fastestLaps(reps [][]float64) (total float64) {
	for i := range reps[0] {
		best := reps[0][i]
		for _, r := range reps[1:] {
			best = min(best, r[i])
		}
		total += best
	}
	return total
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
