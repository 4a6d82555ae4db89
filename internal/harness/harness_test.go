package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/uarch"
)

// tinyContext builds a fast throwaway context over two contrasting
// benchmarks.
func tinyContext(t *testing.T) *Context {
	t.Helper()
	c := NewContext(t.TempDir(), 0.02)
	c.MaxLibPoints = 60
	c.Offsets = 1
	c.Parallel = 2
	c.Benches = []string{"syn.gzip", "syn.mcf"}
	return c
}

func TestTable1Renders(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"RUU/LSQ", "128/64", "256/128", "1MB 4-way L2", "4MB 8-way L2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestBenchLenCaches(t *testing.T) {
	c := tinyContext(t)
	n1, err := c.BenchLen("syn.gzip")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.BenchLen("syn.gzip")
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 == 0 {
		t.Fatalf("lengths %d vs %d", n1, n2)
	}
	// A fresh context over the same OutDir must hit the persisted cache.
	c2 := NewContext(c.OutDir, c.Scale)
	n3, err := c2.BenchLen("syn.gzip")
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1 {
		t.Fatalf("persisted cache returned %d, want %d", n3, n1)
	}
}

func TestLibraryDesignRespectsSpacing(t *testing.T) {
	c := tinyContext(t)
	cfg := uarch.Config8Way()
	d, err := c.LibraryDesign("syn.mcf", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	minGap := uint64(cfg.WindowLen() + 1024)
	for i := 1; i < d.Units(); i++ {
		gap := d.Positions[i] - d.Positions[i-1]
		if gap < minGap {
			t.Fatalf("windows %d and %d only %d instructions apart (min %d)", i-1, i, gap, minGap)
		}
	}
	if d.Units() > c.MaxLibPoints {
		t.Fatalf("%d units exceeds MaxLibPoints %d", d.Units(), c.MaxLibPoints)
	}
	// Jitter must differ across offsets.
	d2, err := c.LibraryDesign("syn.mcf", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := d.Units() == d2.Units()
	if same {
		identical := true
		for i := range d.Positions {
			if d.Positions[i] != d2.Positions[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("offset designs are identical")
		}
	}
}

func TestEnsureLibraryIdempotent(t *testing.T) {
	c := tinyContext(t)
	cfg := uarch.Config8Way()
	info1, err := c.EnsureLibrary("syn.gzip", cfg, []bpred.Config{cfg.BP}, LibFull, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Points == 0 || info1.CompressedBytes == 0 {
		t.Fatalf("empty library: %+v", info1)
	}
	info2, err := c.EnsureLibrary("syn.gzip", cfg, []bpred.Config{cfg.BP}, LibFull, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Path != info2.Path || info2.CreateSeconds != info1.CreateSeconds {
		t.Fatal("second EnsureLibrary did not reuse the cached library")
	}
}

// TestEnsureLibraryRebuildsStaleFormat: an output directory left by a build
// that wrote v1 libraries holds a cache entry pointing at a file the runner
// now refuses. EnsureLibrary must build a fresh library beside it, not hand
// the old one back.
func TestEnsureLibraryRebuildsStaleFormat(t *testing.T) {
	c := tinyContext(t)
	cfg := uarch.Config8Way()
	stale := filepath.Join(c.OutDir, fmt.Sprintf("syn.gzip-s%.3f-%s-full-o0.lplib", c.Scale, cfg.Name))
	if err := os.WriteFile(stale, []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	oldKey := fmt.Sprintf("library/syn.gzip/%.4f/%s/full/o0/n%d", c.Scale, cfg.Name, c.MaxLibPoints)
	if err := c.store(oldKey, LibraryInfo{Path: stale, Points: 14, CompressedBytes: 10}); err != nil {
		t.Fatal(err)
	}

	info, err := c.EnsureLibrary("syn.gzip", cfg, []bpred.Config{cfg.BP}, LibFull, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path == stale {
		t.Fatal("EnsureLibrary returned the stale v1 library")
	}
	res, err := livepoint.RunFile(info.Path, livepoint.RunOpts{Cfg: cfg})
	if err != nil {
		t.Fatalf("running the rebuilt library: %v", err)
	}
	if res.Processed != info.Points {
		t.Fatalf("ran %d of %d points", res.Processed, info.Points)
	}
	if st, err := os.Stat(info.Path); err != nil || st.Size() != info.CompressedBytes {
		t.Fatalf("CompressedBytes %d is not the file's size (%v, %v)", info.CompressedBytes, st, err)
	}
}

func TestRunFigure1Tiny(t *testing.T) {
	c := tinyContext(t)
	tab, err := c.figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, name := range c.BenchNames() {
		w, okW := tab.Value(name, "warm insts")
		d, okD := tab.Value(name, "detail insts")
		if !okW || !okD || w == 0 || d == 0 {
			t.Fatalf("%s: warm %v (%v), detail %v (%v)", name, w, okW, d, okD)
		}
		if w < d {
			t.Errorf("%s: warming (%v) should cover more instructions than detail (%v)", name, w, d)
		}
	}
	if !strings.Contains(tab.String(), "Figure 1") {
		t.Fatal("render broken")
	}
}

func TestRunAccuracyTiny(t *testing.T) {
	c := tinyContext(t)
	c.Benches = []string{"syn.gzip"}
	tab, err := c.accuracy()
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := tab.Value("syn.gzip", "true CPI")
	est, _ := tab.Value("syn.gzip", "estimate")
	if golden <= 0 || est <= 0 {
		t.Fatalf("bad row %+v", tab.Rows[0])
	}
	// At tiny scale the CI is loose; the estimate must still be in the
	// right ballpark of the truth.
	if e, _ := tab.Value("syn.gzip", "error"); math.Abs(e) > 50 {
		t.Fatalf("estimate %.4f wildly off truth %.4f", est, golden)
	}
}

// TestArtifactsTiny runs the whole ledger at tiny scale: every key, a row
// per benchmark where the artifact has one, every number finite, every
// title rendered. It asserts none of the paper's values, which do not hold
// at this scale.
func TestArtifactsTiny(t *testing.T) {
	wantKeys := []string{"table1", "fig1", "fig4", "fig5", "fig7", "fig8", "table2", "table3", "accuracy", "matched", "scaling", "online"}
	if got := Keys(); !slices.Equal(got, wantKeys) {
		t.Fatalf("ledger keys %v, want %v", got, wantKeys)
	}
	perBench := map[string]bool{"fig1": true, "fig4": true, "fig5": true, "table2": true, "accuracy": true}
	c := tinyContext(t)
	names := map[string]bool{}
	for _, a := range Artifacts {
		if names[a.Name] {
			t.Errorf("entry name %s used twice", a.Name)
		}
		names[a.Name] = true
		tab, err := a.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if perBench[a.Key] {
			var labels []string
			for _, r := range tab.Rows {
				labels = append(labels, r.Label)
			}
			want := slices.Clone(c.BenchNames())
			slices.Sort(labels)
			slices.Sort(want)
			if !slices.Equal(labels, want) {
				t.Errorf("%s: rows %v, want one per benchmark %v", a.Name, labels, want)
			}
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", a.Name)
		}
		for _, r := range tab.Rows {
			if len(r.Cells) != len(tab.Columns)-1 {
				t.Errorf("%s: row %q has %d cells for %d columns", a.Name, r.Label, len(r.Cells), len(tab.Columns))
			}
			for i, cell := range r.Cells {
				if cell.Fmt != "" && (math.IsNaN(cell.V) || math.IsInf(cell.V, 0)) {
					t.Errorf("%s: row %q column %q is %v", a.Name, r.Label, tab.Columns[i+1], cell.V)
				}
			}
		}
		metrics := map[string]bool{}
		for _, h := range tab.Headlines {
			if math.IsNaN(h.Value) || math.IsInf(h.Value, 0) {
				t.Errorf("%s: headline %s is %v", a.Name, h.Metric, h.Value)
			}
			if h.Metric == "" || strings.ContainsAny(h.Metric, " \t\n") || metrics[h.Metric] {
				t.Errorf("%s: headline metric %q is empty, holds a space or repeats", a.Name, h.Metric)
			}
			metrics[h.Metric] = true
		}
		if !strings.Contains(tab.String(), tab.Title) {
			t.Errorf("%s: title %q not rendered", a.Name, tab.Title)
		}
		if a.Key == "fig5" {
			if want := []string{"benchmark", "full live-state", "restricted", "additional"}; !slices.Equal(tab.Columns, want) {
				t.Errorf("Figure 5 columns %q, want %q", tab.Columns, want)
			}
			if s := tab.String(); !strings.Contains(s, "full live-state") || strings.Contains(s, "full-warm") {
				t.Errorf("Figure 5 header not drawn as full live-state / restricted:\n%s", s)
			}
		}
	}
}

func TestSelect(t *testing.T) {
	got, err := Select("fig4")
	if err != nil || len(got) != 2 || got[0].Name != "fig4-stitched" || got[1].Name != "fig4-unstitched" {
		t.Fatalf("Select(fig4) = %v, %v; want the stitched and unstitched tables", got, err)
	}
	if _, err := Select("fig9,tabel2"); err == nil || !strings.Contains(err.Error(), `"fig9"`) || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("Select(fig9,tabel2) error %v; want one naming fig9 and listing the keys", err)
	}
	if got, err := Select("all"); err != nil || len(got) != len(Artifacts) {
		t.Fatalf("Select(all) = %d entries, %v; want %d", len(got), err, len(Artifacts))
	}
}

// TestBiasWorstIsTheLargestRow: with every additional bias negative, the
// worst additional bias is the larger of them, not zero.
func TestBiasWorstIsTheLargestRow(t *testing.T) {
	tab := biasTable("bias", "full live-state", "restricted", []Row{
		biasRow("syn.gzip", 0.1154, 0.0641),
		biasRow("syn.mcf", 0.0112, 0.0051),
	}, "", "")
	want, _ := tab.Value("syn.mcf", "additional")
	i := slices.IndexFunc(tab.Headlines, func(h Headline) bool { return h.Metric == "worst-add-bias-%" })
	if i < 0 || tab.Headlines[i].Value != want || want >= 0 {
		t.Fatalf("worst additional bias in %+v, want %v", tab.Headlines, want)
	}
	if tab.Rows[0].Label != "syn.mcf" {
		t.Fatalf("rows not sorted by additional bias, largest first: %q first", tab.Rows[0].Label)
	}
}

func TestSpreadPositions(t *testing.T) {
	pos := make([]uint64, 100)
	for i := range pos {
		pos[i] = uint64(i) * 1000
	}
	out := spreadPositions(pos, 8)
	if len(out) == 0 || len(out) > 8 {
		t.Fatalf("got %d positions", len(out))
	}
	if out[0] < pos[40] {
		t.Fatalf("first spread position %d is in the cold ramp", out[0])
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("positions not increasing")
		}
	}
	short := []uint64{1, 2, 3}
	if got := spreadPositions(short, 8); len(got) != 3 {
		t.Fatalf("short input should pass through, got %d", len(got))
	}
}

func TestDesignChangesAreValid(t *testing.T) {
	base := uarch.Config8Way()
	changes := DesignChanges(base)
	if len(changes) < 5 {
		t.Fatalf("only %d design changes", len(changes))
	}
	seen := map[string]bool{}
	for _, ch := range changes {
		if seen[ch.Name] {
			t.Errorf("duplicate change %s", ch.Name)
		}
		seen[ch.Name] = true
		if err := ch.Hier.Validate(); err != nil {
			t.Errorf("%s: invalid hierarchy: %v", ch.Name, err)
		}
		// Every change must stay reconstructible from a baseline-max
		// library: no structure may grow.
		if ch.Hier.L2.SizeBytes > base.Hier.L2.SizeBytes ||
			ch.Hier.L1D.SizeBytes > base.Hier.L1D.SizeBytes ||
			ch.BP != base.BP {
			t.Errorf("%s: exceeds library maxima", ch.Name)
		}
	}
}
