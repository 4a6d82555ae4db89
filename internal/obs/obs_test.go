package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	// Same (name, labels) resolves to the same instrument.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("counter lookup not idempotent")
	}

	g := r.Gauge("temp", "temperature")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge %v, want 2", g.Value())
	}

	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.1, 0.5, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-3.65) > 1e-12 {
		t.Fatalf("histogram sum %v, want 3.65", h.Sum())
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits by endpoint", "endpoint", "GET /v1/stat").Add(3)
	r.Counter("hits_total", "hits by endpoint", "endpoint", "GET /v1/points").Inc()
	r.Gauge("active", "active leases").Set(2)
	r.GaugeFunc("progress", "stopping progress", func() float64 { return 0.25 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, "endpoint", "GET /v1/stat")
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP hits_total hits by endpoint
# TYPE hits_total counter
hits_total{endpoint="GET /v1/stat"} 3
hits_total{endpoint="GET /v1/points"} 1
# HELP active active leases
# TYPE active gauge
active 2
# HELP progress stopping progress
# TYPE progress gauge
progress 0.25
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{endpoint="GET /v1/stat",le="0.1"} 1
lat_seconds_bucket{endpoint="GET /v1/stat",le="1"} 2
lat_seconds_bucket{endpoint="GET /v1/stat",le="+Inf"} 2
lat_seconds_sum{endpoint="GET /v1/stat"} 0.55
lat_seconds_count{endpoint="GET /v1/stat"} 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", "path", `a"b\c`+"\n").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `c_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("unescaped labels:\n%s", b.String())
	}
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("p", "p", func() float64 { return 1 })
	r.GaugeFunc("p", "p", func() float64 { return 2 })
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "p 2\n") {
		t.Fatalf("gauge func not replaced:\n%s", b.String())
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter re-registered as gauge")
		}
	}()
	r.Gauge("x", "x")
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n_total", "n").Inc()
				r.Gauge("g", "g").Add(1)
				r.Histogram("h", "h", []float64{0.5}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if n := r.Counter("n_total", "n").Value(); n != 8000 {
		t.Fatalf("counter %d, want 8000", n)
	}
	if g := r.Gauge("g", "g").Value(); g != 8000 {
		t.Fatalf("gauge %v, want 8000", g)
	}
	if c := r.Histogram("h", "h", []float64{0.5}).Count(); c != 8000 {
		t.Fatalf("histogram %d, want 8000", c)
	}
}
