package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads: which
// way each end-to-end metric is better and by how much it may worsen.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricSpec                 `json:"end_to_end"`
	PerLayer  []metricSpec                 `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadSamples reads one side of a comparison: a comma-separated list of
// result files, each one record or the merged {"runs": [...]} of a whole
// set. It pools, per workload and metric, every end-to-end sample in
// them: the per-pass values where a median was taken, the single value
// otherwise.
func loadSamples(paths string) (map[string]map[string][]float64, error) {
	pooled := make(map[string]map[string][]float64)
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var file struct {
			Runs []record `json:"runs"`
			record
		}
		if err := json.Unmarshal(b, &file); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if file.Runs == nil {
			file.Runs = []record{file.record}
		}
		for _, r := range file.Runs {
			if r.Trace {
				continue
			}
			if pooled[r.Workload] == nil {
				pooled[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				if len(m.Samples) > 0 {
					pooled[r.Workload][name] = append(pooled[r.Workload][name], m.Samples...)
				} else {
					pooled[r.Workload][name] = append(pooled[r.Workload][name], m.Value)
				}
			}
		}
	}
	return pooled, nil
}

// verdict judges b against the base a for one metric. worse is how much
// worse b's median is than a's, as a share of a's (negative: better).
// Where a's own spread (quartile distance over median) is wider than the
// bound the pair is unresolved, unless every b sample is on one side of
// every a sample. One sample a side has no spread to beat, so it can be
// worse or within the bound but never better: pool more runs to claim.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if !lowerIsBetter {
		worse = -worse
	}
	spread := ratio(quantile(a, 0.75)-quantile(a, 0.25), ma)
	disjoint := slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
	switch {
	case spread > bound && !disjoint:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case worse < 0 && -worse > spread && len(a) > 1 && len(b) > 1:
		return "better", worse
	}
	return "within-bound", worse
}

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadSamples(pathA)
	if err != nil {
		return err
	}
	b, err := loadSamples(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base a = %s, b = %s; ratio is b/a; q = quartiles; n = samples\n", pathA, pathB)
	fmt.Fprintf(w, "%-24s %-20s %12s %25s %4s %12s %25s %4s %7s %6s  %s\n",
		"workload", "metric", "a median", "a q1..q3", "n", "b median", "b q1..q3", "n", "ratio", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(sa) == 0 || len(sb) == 0 {
				fmt.Fprintf(w, "%-24s %-20s missing from %s\n", wl.Name, m.Name, map[bool]string{true: pathA, false: pathB}[len(sa) == 0])
				continue
			}
			v, _ := verdict(sa, sb, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-24s %-20s %12.6g %25s %4d %12.6g %25s %4d %7.4f %5.0f%%  %s\n",
				wl.Name, m.Name,
				median(sa), fmt.Sprintf("%.6g..%.6g", quantile(sa, 0.25), quantile(sa, 0.75)), len(sa),
				median(sb), fmt.Sprintf("%.6g..%.6g", quantile(sb, 0.25), quantile(sb, 0.75)), len(sb),
				ratio(median(sb), median(sa)), 100*m.Bound, v)
		}
	}
	return nil
}

// golden.json holds the simulated totals of the default seed at the
// default scale. They are exact; a difference means the model changed.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden sets SimStatsChanged when the run's simulated totals are
// not the recorded ones. That is for a reviewer to see, not a failure.
func (r *record) checkGolden(o options) {
	var golden struct {
		Seed   int64                         `json:"seed"`
		E2E    map[string]map[string]float64 `json:"e2e"`
		Layers map[string]map[string]float64 `json:"layers"`
	}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil || o.seed != golden.Seed || o.scale != 1 {
		return
	}
	want := golden.E2E[r.Workload]
	if r.Trace {
		want = golden.Layers[r.Workload]
	}
	for k, v := range r.Sim {
		// Not bit-equality: a completion-order fold (Parallel:2) may differ
		// in the last bit from run to run; a model change differs by far more.
		if w, ok := want[k]; !ok || relDiff(w, v) > 1e-12 {
			r.SimStatsChanged = true
			fmt.Fprintf(os.Stderr, "%-24s sim_stats_changed=true %s = %v, golden.json has %v\n", r.Workload, k, v, w)
		}
	}
}
