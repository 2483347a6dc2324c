package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// metricDef is one reported metric: name, unit and which direction is
// better. The end-to-end and per-layer tables below are the benchmark's
// single source of truth; BENCHMARK.json mirrors them and a test holds
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the user-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"player_s_per_cpu_s", "player_s/cpu_s", "higher"},
	{"player_s_per_s", "player_s/s", "higher"},
	{"jobs_per_cpu_s", "jobs/cpu_s", "higher"},
	{"p50_ms_lo", "ms", "lower"},
	{"p95_ms_lo", "ms", "lower"},
	{"p50_ms_hi", "ms", "lower"},
	{"p95_ms_hi", "ms", "lower"},
	{"slo_met_frac", "fraction", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "fraction", "higher"},
}

// perLayer are the single-layer metrics every traced run reports. A
// layer the workload's own inputs never reach is measured on probe jobs
// (see probeLayers).
var perLayer = []metricDef{
	{"fleet.specs_ms", "ms", "lower"},
	{"coex.geometry_ms", "ms", "lower"},
	{"venue.interference_ms", "ms", "lower"},
	{"fleet.overhead_frac", "fraction", "lower"},
	{"fleet.parallel_eff", "fraction", "higher"},
	{"experiments.bay_ms", "ms", "lower"},
	{"experiments.session_ms.direct", "ms", "lower"},
	{"experiments.session_ms.static", "ms", "lower"},
	{"experiments.session_ms.reactive", "ms", "lower"},
	{"experiments.session_ms.tracking", "ms", "lower"},
	{"experiments.cpu_us_per_player_s", "us", "lower"},
	{"linkmgr.step_us", "us", "lower"},
	{"linkmgr.reassess_us", "us", "lower"},
	{"gainctl.optimize_us", "us", "lower"},
	{"gainctl.probes_per_opt", "count", "lower"},
	{"reflector.supply_current_ns", "ns", "lower"},
	{"channel.trace_ns", "ns", "lower"},
	{"channel.hit_frac", "fraction", "higher"},
	{"channel.reval_frac", "fraction", "higher"},
	{"channel.miss_frac", "fraction", "lower"},
	{"channel.snr_ns", "ns", "lower"},
	{"antenna.gain_ns", "ns", "lower"},
	{"coex.share_ns", "ns", "lower"},
	{"stream.frame_ns", "ns", "lower"},
	{"server.hit_ms_p50", "ms", "lower"},
	{"server.run_ms_mean", "ms", "lower"},
	{"server.queue_wait_ms_mean", "ms", "lower"},
	{"server.cache_hit_frac", "fraction", "higher"},
	{"server.coalesced_frac", "fraction", "higher"},
	{"server.rejected_frac", "fraction", "lower"},
	{"loadgen.late_ms_p95", "ms", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"linkmgr.step_calls", "count", "lower"},
	{"gainctl.optimize_calls", "count", "lower"},
	{"channel.trace_calls", "count", "lower"},
	{"stream.frames", "count", "lower"},
}

// metricName is the grammar every metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one reported value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line: the last line of stdout.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport fills every metric of defs from vals. A metric missing
// from vals, or a NaN or infinite value, is an error: the benchmark
// never prints a partial result line.
func buildReport(defs []metricDef, vals map[string]float64, attempted, failed int) (report, error) {
	r := report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return report{}, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if attempted < 1 {
		return report{}, fmt.Errorf("nothing attempted")
	}
	return r, nil
}

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchSpec reads BENCHMARK.json.
func loadBenchSpec(path string) (benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return benchSpec{}, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return benchSpec{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}
