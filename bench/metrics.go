package main

// metricDef declares one metric: its name, unit and which direction is
// better. An end-to-end metric has two bounds, because it is compared
// in two ways. Same is the share by which it may get worse between two
// runs of one seed (bench -compare): there the exact metrics do not
// move at all unless the engine's behaviour did, so 1 % is already
// generous. Bound is the share by which its median over different
// seeds may get worse (the driver's gate, BENCHMARK.json): it has to
// sit above the seed-to-seed spread, which README "Bounds" tabulates.
// The host-clock metrics get 25 % either way: two runs of one binary a
// few minutes apart differ by up to 20 % on this shared host, so a
// single pair of runs cannot resolve less (a host-speed gain is claimed
// with paired, alternating runs, choosing-metrics guide §8).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Same   float64 `json:"-"`
	// gated is false for an end-to-end metric that BENCHMARK.json lists
	// among the unbounded per-layer metrics: its spread across seeds is
	// wider than any bound the driver accepts (0.25); or, for
	// open_sustained_kops, it is one of three fixed rates, so it either
	// does not move across seeds or jumps by a quarter, and no bound
	// fits a step; or, for host_cpu_us_per_op, it repeats
	// host_kops_per_s on single-goroutine workloads and two noisy gates
	// on one quantity only double the false alarms.
	gated bool
}

const (
	lower  = "lower"
	higher = "higher"
	// virtUs marks microseconds of the simulated clock: what the
	// modelled hardware would take, a function of the seed alone, not a
	// reading of the host's clock.
	virtUs = "virt_us"
)

// endToEnd lists the 13 end-to-end metrics, what a user of the store
// (virt_*, open_*, *_amp) or of the Go engine (host_*, setup_s) sees.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, 0.25, true},
	{"virt_us_per_op", virtUs, lower, 0.25, 0.01, true},
	{"virt_p50_us", virtUs, lower, 0, 0.01, false},
	{"virt_p9999_us", virtUs, lower, 0.25, 0.01, true},
	{"virt_max_us", virtUs, lower, 0, 0.01, false},
	{"host_kops_per_s", "kops/s", higher, 0.25, 0.25, true},
	{"host_cpu_us_per_op", "us", lower, 0, 0.25, false},
	{"host_peak_rss_mb", "MB", lower, 0.25, 0.10, true},
	{"write_amp", "ratio", lower, 0.20, 0.01, true},
	{"space_amp", "ratio", lower, 0.25, 0.01, true},
	{"open_p50_us", virtUs, lower, 0, 0.01, false},
	{"open_p99_us", virtUs, lower, 0, 0.01, false},
	{"open_sustained_kops", "kops/s", higher, 0, 0, false},
}

// exactMetrics must repeat bit for bit across the reps of an inline
// workload.
var exactMetrics = []string{
	"virt_us_per_op", "virt_p50_us", "virt_p9999_us", "virt_max_us",
	"write_amp", "space_amp", "open_p50_us", "open_p99_us", "open_sustained_kops",
}

// gatedEndToEnd and ungatedEndToEnd split endToEnd for the driver.
func gatedEndToEnd() (gated, ungated []metricDef) {
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		} else {
			ungated = append(ungated, d)
		}
	}
	return gated, ungated
}
