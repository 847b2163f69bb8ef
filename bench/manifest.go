package main

// benchmarkManifest is BENCHMARK.json: what the driver reads to know
// how to run the benchmark and which metrics to expect. `bench
// -manifest` prints it; a test keeps the checked-in file in step.
type benchmarkManifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the least one run measures: with the sizes in
// workloads.go the measured regions of a run's four reps add up to
// between 6 s (read_hot) and 18 s (mixed) on the machine the benchmark
// was sized on.
const runSeconds = 4

func manifest() benchmarkManifest {
	gated, ungated := gatedEndToEnd()
	m := benchmarkManifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   gated,
	}
	for _, w := range workloads(false) {
		if !w.byHand {
			m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
		}
	}
	for _, d := range append(ungated, perLayer...) {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}
