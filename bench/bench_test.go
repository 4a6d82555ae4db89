package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
	xs = xs[:19]
	if v, pct := tail(xs); v != median(xs) || pct != 50 {
		t.Errorf("tail of 19 samples = %v at p%v, want the median at p50", v, pct)
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100] has the siblings a [10,30], b [40,70] and d [60,80];
	// b has the nested child c [45,55]. b and d overlap on [60,70], which
	// root's self time must give up only once.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 40, End: 70},
		{Name: "c", Parent: 2, Start: 45, End: 55},
		{Name: "d", Parent: 0, Start: 60, End: 80},
	}
	want := []time.Duration{100 - 20 - 40, 20, 30 - 10, 10, 20}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	total, count := selfByName(append(spans, span{Name: "a", Parent: -1, Start: 200, End: 205}))
	if total["a"] != 25 || count["a"] != 2 {
		t.Errorf("a: self %v over %d spans, want 25 over 2", total["a"], count["a"])
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", base, []float64{100, 100, 101, 99, 101}, true, "within-bound"},
		{"lower is better, b lower", base, []float64{80, 81, 79, 80, 82}, true, "better"},
		{"lower is better, b higher", base, []float64{120, 121, 119, 120, 122}, true, "worse"},
		{"higher is better, b higher", base, []float64{120, 121, 119, 120, 122}, false, "better"},
		{"worse but inside the bound", base, []float64{105, 106, 104, 105, 107}, true, "within-bound"},
		{"base spread wider than the bound, runs interleave", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, true, "unresolved"},
		{"wide spread but every b beyond every a", []float64{80, 100, 120, 90, 110}, []float64{200, 210, 220, 230, 240}, true, "worse"},
	} {
		if got, _ := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload, end to end and traced, on tiny libraries
// and holds the program to BENCHMARK.json: the same workloads, and for
// each kind of run exactly the registered metric names and units.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		// The frozen pass count is recorded at the end of the reason.
		if reg := spec.Workloads[i]; reg.Name != w.name || !strings.HasSuffix(reg.Why, fmt.Sprintf(" %d timed passes.", w.passes)) {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the program has %q with %d timed passes", i, reg.Name, reg.Why, w.name, w.passes)
		}
		if w.passes < minPasses {
			t.Errorf("%s: %d timed passes, fewer than %d", w.name, w.passes, minPasses)
		}
	}

	for _, w := range workloads {
		// A hundredth of the length is some eight points. The stopping rule
		// needs thirty and a prefix of the first three quarters that holds
		// them, so its library is smoked at 0.07: some sixty points.
		scale := 0.01
		if w.name == serverStopGcc {
			scale = 0.07
		}
		for _, trace := range []bool{false, true} {
			rec, err := runOne(options{workload: w.name, seed: 1, passes: 1, trace: trace, out: t.TempDir(), scale: scale})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			registered := spec.EndToEnd
			if trace {
				registered = spec.PerLayer
			}
			want := make(map[string]string)
			for _, m := range registered {
				want[m.Name] = m.Unit
			}
			got := make(map[string]string)
			for name, m := range rec.Metrics {
				got[name] = m.Unit
			}
			if d := diffKeys(want, got); d != "" {
				t.Errorf("%s trace=%v: metrics differ from BENCHMARK.json: %s", w.name, trace, d)
			}
			if !rec.Correct {
				t.Errorf("%s trace=%v: failed its correctness gate: %v", w.name, trace, rec.Failures)
			}
			if rec.Attempted < 1 || rec.Library.Points < 1 {
				t.Errorf("%s trace=%v: attempted %d operations on %d points", w.name, trace, rec.Attempted, rec.Library.Points)
			}
		}
	}
}

// diffKeys lists what two name→unit maps disagree on.
func diffKeys(want, got map[string]string) string {
	var d []string
	for k, u := range want {
		if g, ok := got[k]; !ok {
			d = append(d, "missing "+k)
		} else if g != u {
			d = append(d, k+" has unit "+g+", registered "+u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			d = append(d, "unregistered "+k)
		}
	}
	sort.Strings(d)
	return strings.Join(d, "; ")
}
