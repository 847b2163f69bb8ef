package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"noblsm/internal/policy"
)

func quickWorkload(t *testing.T, name string) *workload {
	t.Helper()
	for _, w := range workloads(true) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// The contract's limits on names, units and counts (BENCHMARK.json is
// refused before a single run when one is broken).
func TestMetricTablesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := manifest()
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(endToEnd) != 13 || len(perLayer) != 118 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the issue names 13 and 118", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 || (d.gated && d.Bound == 0) {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if seen[d.Name] {
			t.Errorf("%s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	for _, w := range workloads(false) {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// BENCHMARK.json repeats the tables for the driver; the tool writes it
// (bench -manifest), so the two cannot drift unnoticed.
func TestManifestInStep(t *testing.T) {
	want, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is not what `bench -manifest` prints; regenerate it")
	}
}

// Every metric BENCHMARK.json declares is emitted by every workload it
// lists: the end-to-end ones untraced and never 0, the per-layer ones
// traced. One rep each, at -quick sizes.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	for _, w := range workloads(true) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r, err := runRep(w, repConfig{seed: 3, variant: policy.NobLSM})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d operations failed: %s", r.failed, r.attempted, r.firstFailure)
			}
			out := newResult(w, 3)
			out.fill(w, []*repResult{r})
			for _, d := range endToEnd {
				m, ok := out.EndToEnd[d.Name]
				if !ok || m.Value <= 0 {
					t.Errorf("%s = %v (declared %v)", d.Name, m.Value, ok)
				}
				if m.Unit != d.Unit || m.Better != d.Better {
					t.Errorf("%s: emitted with unit %q, %s is better", d.Name, m.Unit, m.Better)
				}
			}
			gated, _ := gatedEndToEnd()
			if got := out.summary(false)["metrics"].(map[string]map[string]interface{}); len(got) != len(gated) {
				t.Errorf("summary line has %d metrics, want %d", len(got), len(gated))
			}
		})
	}
}

// The traced run: every per-layer metric, the trace file, span
// conservation on both clocks, byte conservation at the seam, and a
// seam that hides nothing from the engine.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"fill", "read_cold", "mixed", "fill_async"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := quickWorkload(t, name)
			path := filepath.Join(t.TempDir(), "trace.json")
			// runTraced itself fails when the traced rep's virtual clock,
			// amplification or any registry counter differs from the
			// untraced rep's: the wrapper must be transparent.
			out, err := runTraced(w, 5, path)
			if err != nil {
				t.Fatal(err)
			}
			if out.OpsFailed != 0 {
				t.Fatalf("%d operations failed: %s", out.OpsFailed, out.FirstFailure)
			}
			for _, d := range perLayer {
				if _, ok := out.PerLayer[d.Name]; !ok {
					t.Errorf("%s not emitted", d.Name)
				}
			}
			v := func(n string) float64 { return out.PerLayer[n].Value }
			if w.measured == opPut || w.mixed {
				// A wrapper that hid CheckCommit would turn NobLSM into
				// something else without failing anything.
				if v("tracker.registered") <= 0 || v("vfs.sync_calls") <= 0 {
					t.Errorf("tracker.registered %v, vfs.sync_calls %v: the seam hides the NobLSM syscalls", v("tracker.registered"), v("vfs.sync_calls"))
				}
				// What crosses the seam is what the layers say they wrote.
				if v("vfs.wal_bytes") != v("wal.bytes") {
					t.Errorf("vfs.wal_bytes %v, wal.bytes %v", v("vfs.wal_bytes"), v("wal.bytes"))
				}
				if v("vfs.table_bytes_written") != v("compaction.bytes_written") {
					t.Errorf("vfs.table_bytes_written %v, compaction.bytes_written %v", v("vfs.table_bytes_written"), v("compaction.bytes_written"))
				}
				if v("vfs.manifest_bytes") != v("version.manifest_bytes") {
					t.Errorf("vfs.manifest_bytes %v, version.manifest_bytes %v", v("vfs.manifest_bytes"), v("version.manifest_bytes"))
				}
			}

			var tf traceFile
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Ops == 0 || len(tf.Sampled) == 0 || len(tf.Slowest) == 0 {
				t.Fatalf("trace holds %d ops, %d sampled, %d slowest", tf.Ops, len(tf.Sampled), len(tf.Slowest))
			}
			var classes int64
			for _, a := range tf.Aggregates["vfs.append"] {
				classes += a.Bytes
			}
			if float64(classes) != v("vfs.append_bytes") {
				t.Errorf("vfs.append bytes by class sum to %d, vfs.append_bytes is %v", classes, v("vfs.append_bytes"))
			}
			// An op's span covers its children on both clocks.
			for _, k := range append(tf.Sampled, tf.Slowest...) {
				var host, virt int64
				for _, a := range k.ByName {
					host += a.HostNs
				}
				for _, c := range k.Children {
					if c.OnOpClock {
						virt += c.VirtEndNs - c.VirtStartNs
					}
				}
				if host > k.HostNs || virt > k.VirtNs {
					t.Fatalf("op %d: span %d host ns / %d virt ns, children %d / %d", k.Op, k.HostNs, k.VirtNs, host, virt)
				}
			}
		})
	}
}

func TestDeterminismGate(t *testing.T) {
	w := quickWorkload(t, "fill")
	a, err := runRep(w, repConfig{seed: 9, variant: policy.NobLSM, closedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(w, repConfig{seed: 9, variant: policy.NobLSM, closedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAcrossReps([]*repResult{a, b}); err != nil {
		t.Fatalf("two reps of one seed: %v", err)
	}
	b.after.Counters["ext4.syncs"]++
	if err := sameAcrossReps([]*repResult{a, b}); err == nil || !strings.Contains(err.Error(), "ext4.syncs") {
		t.Errorf("a differing counter: %v", err)
	}
	b.exact["virt_us_per_op"] += 0.001
	if err := sameAcrossReps([]*repResult{a, b}); err == nil || !strings.Contains(err.Error(), "virt_us_per_op") {
		t.Errorf("a differing metric: %v", err)
	}
	c, err := runRep(w, repConfig{seed: 10, variant: policy.NobLSM, closedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if sameAcrossReps([]*repResult{a, c}) == nil {
		t.Error("two seeds gave identical runs: the seed does not reach the inputs")
	}
}

// fill must reproduce the paper harness's virtual time exactly.
func TestCrossCheckAgainstHarness(t *testing.T) {
	var out bytes.Buffer
	if err := crossCheck(&out, 42, true); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no metric %q", name)
		return metricDef{}
	}
	mk := func(virt, kops float64, reps []float64) *resultFile {
		dv, dk := def("virt_us_per_op"), def("host_kops_per_s")
		return &resultFile{Schema: 1, Workloads: map[string]*workloadResult{"fill": {
			Workload: "fill", Seed: 1,
			EndToEnd: map[string]metricValue{
				dv.Name: {Value: virt, Unit: dv.Unit, Better: dv.Better},
				dk.Name: {Value: kops, Unit: dk.Unit, Better: dk.Better, Reps: reps},
			},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(14.5, 50, []float64{50, 49.5, 48}))
	for _, tc := range []struct {
		name            string
		virt, kops      float64
		reps            []float64
		wantVirt, wantK string
		wantWorse       bool
	}{
		{"same", 14.5, 50.5, []float64{50.5, 50, 49}, verdictSame, verdictSame, false},
		{"virt worse", 16, 50, []float64{50, 49.9}, verdictWorse, verdictSame, true},
		{"virt better, host worse", 13, 30, []float64{30, 29.9}, verdictBetter, verdictWorse, true},
		{"host better", 14.5, 80, []float64{80, 79}, verdictSame, verdictBetter, false},
		{"host unresolved", 14.5, 30, []float64{30, 20, 19}, verdictSame, verdictUnresolved, false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write("b.json", mk(tc.virt, tc.kops, tc.reps)))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: %d lines:\n%s", tc.name, len(lines), out.String())
		}
		if !strings.HasSuffix(lines[1], tc.wantVirt) || !strings.HasSuffix(lines[2], tc.wantK) || worse != tc.wantWorse {
			t.Errorf("%s: worse=%v\n%s", tc.name, worse, out.String())
		}
	}
}

func TestNoiseGuardAndPercentile(t *testing.T) {
	if noisy(50, 56) || !noisy(50, 60) || !noisy(60, 50) {
		t.Error("a rep is noisy when its calibrations differ by more than 15 %")
	}
	if d := calibrate(false); d < 5*time.Millisecond || d > 2*time.Second {
		t.Errorf("calibration kernel took %v", d)
	}
	if got := fastestLaps([][]float64{{1, 5, 2}, {3, 1, 2}, {2, 2, 4}}); got != 4 {
		t.Errorf("fastest laps add up to %v, want 1+1+2", got)
	}
	s := make([]int64, 100_000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if p := percentile(s, 0.9999); p != 99_990 {
		t.Errorf("p99.99 of 1..100000 = %d, want 99990 (ten samples beyond)", p)
	}
	if p := percentile(s, 0.5); p != 50_000 {
		t.Errorf("p50 = %d", p)
	}
	if p := percentile(s[:1], 0.9999); p != 1 {
		t.Errorf("p99.99 of one sample = %d", p)
	}
}
