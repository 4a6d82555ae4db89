package harness

import (
	"fmt"
	"os"
	"path/filepath"
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
	s := Table1()
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
	res, err := c.RunFigure1(uarch.Config8Way())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.WarmInsts == 0 || row.DetailedInsts == 0 {
			t.Fatalf("row %+v has zero counts", row)
		}
		if row.WarmInsts < row.DetailedInsts {
			t.Errorf("%s: warming (%d) should cover more instructions than detail (%d)",
				row.Bench, row.WarmInsts, row.DetailedInsts)
		}
	}
	if !strings.Contains(res.String(), "Figure 1") {
		t.Fatal("render broken")
	}
}

func TestRunAccuracyTiny(t *testing.T) {
	c := tinyContext(t)
	c.Benches = []string{"syn.gzip"}
	res, err := c.RunAccuracy(uarch.Config8Way())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.GoldenCPI <= 0 || row.Estimate <= 0 {
		t.Fatalf("bad row %+v", row)
	}
	// At tiny scale the CI is loose; the estimate must still be in the
	// right ballpark of the truth.
	if row.Err > 0.5 || row.Err < -0.5 {
		t.Fatalf("estimate %.4f wildly off truth %.4f", row.Estimate, row.GoldenCPI)
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
		if err := ch.Cfg.Hier.Validate(); err != nil {
			t.Errorf("%s: invalid hierarchy: %v", ch.Name, err)
		}
		// Every change must stay reconstructible from a baseline-max
		// library: no structure may grow.
		if ch.Cfg.Hier.L2.SizeBytes > base.Hier.L2.SizeBytes ||
			ch.Cfg.Hier.L1D.SizeBytes > base.Hier.L1D.SizeBytes ||
			ch.Cfg.BP != base.BP {
			t.Errorf("%s: exceeds library maxima", ch.Name)
		}
	}
}
