package mrrl

import (
	"testing"

	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

func setup(t *testing.T, name string, scale float64) (*prog.Program, sampling.Design, uarch.Config) {
	t.Helper()
	cfg := uarch.Config8Way()
	spec, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Generate(spec, scale)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, design, cfg
}

func TestAnalyzeProducesBoundedWarmLens(t *testing.T) {
	p, design, _ := setup(t, "syn.gzip", 0.01)
	an, err := Analyze(p, design, DefaultReuseProb, DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.WarmLens) != design.Units() {
		t.Fatalf("%d warm lengths for %d units", len(an.WarmLens), design.Units())
	}
	for j, w := range an.WarmLens {
		capAt := design.WindowStart(j)
		if j > 0 {
			capAt = design.WindowStart(j) - (design.Positions[j-1] + design.UnitLen)
		}
		if w > capAt {
			t.Fatalf("window %d: warming %d exceeds cap %d", j, w, capAt)
		}
	}
	if an.TotalRefs == 0 {
		t.Fatal("no references observed")
	}
	if avgWarmLen(an) <= 0 {
		t.Fatal("zero average warming")
	}
}

func TestAnalyzeRejectsBadReuseProb(t *testing.T) {
	p, design, _ := setup(t, "syn.gzip", 0.005)
	if _, err := Analyze(p, design, 0, 128); err == nil {
		t.Fatal("reuse probability 0 accepted")
	}
	if _, err := Analyze(p, design, 1.5, 128); err == nil {
		t.Fatal("reuse probability 1.5 accepted")
	}
}

func TestHigherReuseProbNeedsMoreWarming(t *testing.T) {
	p, design, _ := setup(t, "syn.mcf", 0.01)
	lo, err := Analyze(p, design, 0.9, DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Analyze(p, design, 0.999, DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if avgWarmLen(hi) < avgWarmLen(lo) {
		t.Fatalf("99.9%% warming (%f) below 90%% warming (%f)", avgWarmLen(hi), avgWarmLen(lo))
	}
}

func TestRunAWProducesEstimates(t *testing.T) {
	p, design, cfg := setup(t, "syn.gzip", 0.01)
	an, err := Analyze(p, design, DefaultReuseProb, DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAW(cfg, p, design, an, AWOpts{Stitched: true, CheckHandoff: true, MaxUnits: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := design.Units()
	if want > 10 {
		want = 10
	}
	if len(res.UnitCPIs) != want {
		t.Fatalf("%d units, want %d", len(res.UnitCPIs), want)
	}
	for i, c := range res.UnitCPIs {
		if c <= 0 {
			t.Fatalf("unit %d: CPI %f", i, c)
		}
	}
	if res.WarmInsts == 0 {
		t.Fatal("no functional warming executed")
	}
}

// TestUnstitchedBiasExceedsStitched reproduces the paper's Table 3
// footnote: breaking window dependence (empty caches at each warming
// start) substantially increases bias on a memory-sensitive workload.
func TestUnstitchedBiasExceedsStitched(t *testing.T) {
	p, design, cfg := setup(t, "syn.mcf", 0.02)

	full, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(p, design, DefaultReuseProb, DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunAW(cfg, p, design, an, AWOpts{Stitched: true})
	if err != nil {
		t.Fatal(err)
	}
	un, err := RunAW(cfg, p, design, an, AWOpts{Stitched: false})
	if err != nil {
		t.Fatal(err)
	}
	ref := full.Est.Mean()
	stErr := abs(st.Est.Mean()-ref) / ref
	unErr := abs(un.Est.Mean()-ref) / ref
	t.Logf("stitched err %.2f%%, unstitched err %.2f%% (vs full warming %f)", 100*stErr, 100*unErr, ref)
	if unErr < stErr {
		t.Errorf("unstitched (%f) should not beat stitched (%f)", unErr, stErr)
	}
}

// TestAWFasterThanSMARTSWarming checks adaptive warming actually reduces
// warming work (the paper's ~20% of full warming).
func TestAWReducesWarmingInstructions(t *testing.T) {
	p, design, cfg := setup(t, "syn.gzip", 0.02)
	full, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(p, design, DefaultReuseProb, DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := RunAW(cfg, p, design, an, AWOpts{Stitched: true})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(aw.WarmInsts) / float64(full.FuncWarmInsts)
	t.Logf("AW warms %.1f%% of the instructions SMARTS warms", 100*frac)
	if frac >= 1.0 {
		t.Errorf("adaptive warming (%d) should warm fewer instructions than SMARTS (%d)",
			aw.WarmInsts, full.FuncWarmInsts)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// avgWarmLen returns the mean warming length across windows.
func avgWarmLen(a *Analysis) float64 {
	if len(a.WarmLens) == 0 {
		return 0
	}
	var s uint64
	for _, w := range a.WarmLens {
		s += w
	}
	return float64(s) / float64(len(a.WarmLens))
}
