// Package obs is the repository's observability layer: a dependency-free
// metrics registry with Prometheus text-format exposition. Logs go through
// the standard library's log/slog.
//
// The paper's online-reporting claim (§6.1) is at heart an observability
// claim — run-time decisions (stop now? add workers?) need live progress
// signals — so every serving and cluster layer registers its counters,
// gauges, and latency histograms here and lpserve exposes them on
// GET /metrics. Metrics are identified by name plus an ordered label
// list; looking up the same (name, labels) pair twice returns the same
// instrument, so hot paths may resolve metrics per call without keeping
// references.
//
// All instruments are safe for concurrent use: counters and gauges are
// single atomics, histograms are fixed-bucket arrays of atomics (no locks
// on the observe path).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets
// (Prometheus-style: bucket i counts observations ≤ bounds[i], plus an
// implicit +Inf bucket) and tracks their sum.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// DefSeconds is the default latency bucket layout (seconds), spanning
// sub-millisecond localhost hits to multi-second shard pulls.
var DefSeconds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// Observe folds one observation in.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric is one registered series: exactly one of the value fields is set.
type metric struct {
	labels  string // rendered {k="v",...}, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*metric
	byKey  map[string]*metric
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
// Default is the process-wide registry the serving and cluster layers use
// unless handed their own.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// Default is the process-wide registry.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns (creating if needed) the family for name, panicking on a
// type conflict — re-registering a name as a different metric type is a
// programming error, not a runtime condition.
func (r *Registry) family(name, help, typ string) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*metric)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// renderLabels formats alternating key, value pairs as {k="v",...},
// escaping backslashes, quotes, and newlines per the exposition format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list (want key, value pairs)")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Counter returns the counter for (name, labels), registering it on first
// use. labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	key := renderLabels(labels)
	if m, ok := f.byKey[key]; ok {
		return m.counter
	}
	m := &metric{labels: key, counter: &Counter{}}
	f.byKey[key] = m
	f.series = append(f.series, m)
	return m.counter
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	key := renderLabels(labels)
	if m, ok := f.byKey[key]; ok {
		return m.gauge
	}
	m := &metric{labels: key, gauge: &Gauge{}}
	f.byKey[key] = m
	f.series = append(f.series, m)
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural shape for state already guarded by its owner's lock (lease
// counts, stopping-rule progress). Re-registering the same (name, labels)
// replaces the callback (last owner wins), so successive runs in one
// process export their own state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	key := renderLabels(labels)
	if m, ok := f.byKey[key]; ok {
		m.gaugeFn = fn
		m.gauge = nil
		return
	}
	m := &metric{labels: key, gaugeFn: fn}
	f.byKey[key] = m
	f.series = append(f.series, m)
}

// Histogram returns the histogram for (name, labels), registering it with
// the given bucket upper bounds (ascending; +Inf implicit) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	key := renderLabels(labels)
	if m, ok := f.byKey[key]; ok {
		return m.hist
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	m := &metric{labels: key, hist: h}
	f.byKey[key] = m
	f.series = append(f.series, m)
	return m.hist
}

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges a rendered label set with one extra pair (for
// histogram le labels).
func joinLabels(rendered, key, val string) string {
	extra := key + `="` + val + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// snapshot is one series captured for rendering outside the registry
// lock. Gauge callbacks routinely take their owner's lock (a cluster
// coordinator's, say) while that owner resolves counters under ours, so
// invoking them with r.mu held would be a lock-order inversion.
type snapshot struct {
	name, help, typ string
	labels          string
	counter         *Counter
	gauge           *Gauge
	gaugeFn         func() float64
	hist            *Histogram
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4), in registration order. Gauge callbacks run
// after the registry lock is released.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	var snaps []snapshot
	for _, f := range r.families {
		for _, m := range f.series {
			snaps = append(snaps, snapshot{
				name: f.name, help: f.help, typ: f.typ, labels: m.labels,
				counter: m.counter, gauge: m.gauge, gaugeFn: m.gaugeFn, hist: m.hist,
			})
		}
	}
	r.mu.Unlock()

	var b strings.Builder
	lastName := ""
	for _, s := range snaps {
		if s.name != lastName {
			fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.typ)
			lastName = s.name
		}
		switch {
		case s.counter != nil:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatValue(s.gauge.Value()))
		case s.gaugeFn != nil:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatValue(s.gaugeFn()))
		case s.hist != nil:
			var cum uint64
			for i, bound := range s.hist.bounds {
				cum += s.hist.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, joinLabels(s.labels, "le", formatValue(bound)), cum)
			}
			cum += s.hist.buckets[len(s.hist.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, joinLabels(s.labels, "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, s.labels, formatValue(s.hist.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels, s.hist.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
