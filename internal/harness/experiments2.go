package harness

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"strings"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/mrrl"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

func gzipCompressLen(b []byte) int {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(b)
	gz.Close()
	return buf.Len()
}

// --- Table 2: runtimes per technique -------------------------------------------

// Table2Row is one benchmark's wall-clock per technique, in seconds.
type Table2Row struct {
	Bench      string
	Complete   float64 // complete detailed simulation (sim-outorder)
	SMARTS     float64 // full warming
	AWMRRL     float64 // adaptive warming (warming + detailed, FF excluded)
	LivePoints float64 // load + simulate until target confidence
	LPPoints   int     // points processed by the live-point run
	LPRelCI    float64 // achieved confidence
}

// Table2Result is the Table 2 reproduction for one configuration.
type Table2Result struct {
	Cfg  string
	Rows []Table2Row
}

// RunTable2 measures per-benchmark wall-clock for all four techniques. The
// live-point runs use the online stopping rule (target RelErr at confidence
// Z) against the shuffled library; the other techniques traverse the full
// sample design.
func (c *Context) RunTable2(cfg uarch.Config) (*Table2Result, error) {
	res := &Table2Result{Cfg: cfg.Name}
	rows := make(map[string]Table2Row)
	err := c.forEachBench(func(name string) error {
		p, err := c.Program(name)
		if err != nil {
			return err
		}
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return err
		}
		design, err := c.LibraryDesign(name, cfg, 0)
		if err != nil {
			return err
		}
		sm, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
		if err != nil {
			return err
		}
		lens, _, err := c.MRRLWarmLens(name, cfg, 0)
		if err != nil {
			return err
		}
		aw, err := mrrl.RunAW(cfg, p, design, analysisFor(lens), mrrl.AWOpts{Stitched: true})
		if err != nil {
			return err
		}
		lib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
		if err != nil {
			return err
		}
		lr, err := livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg, Z: c.Z, RelErr: c.RelErr})
		if err != nil {
			return err
		}
		row := Table2Row{
			Bench:      name,
			Complete:   golden.Seconds,
			SMARTS:     (sm.FuncWarmTime + sm.DetailedTime).Seconds(),
			AWMRRL:     (aw.WarmTime + aw.DetailedTime).Seconds(),
			LivePoints: (lr.LoadTime + lr.SimTime).Seconds(),
			LPPoints:   lr.Processed,
			LPRelCI:    lr.Est.RelCI(c.Z),
		}
		c.mu.Lock()
		rows[name] = row
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range c.BenchNames() {
		res.Rows = append(res.Rows, rows[name])
	}
	return res, nil
}

// MinAvgMax summarizes one technique column.
func (r *Table2Result) MinAvgMax(get func(Table2Row) float64) (mn, avg, mx float64) {
	if len(r.Rows) == 0 {
		return
	}
	mn = math.Inf(1)
	for _, row := range r.Rows {
		v := get(row)
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
		avg += v
	}
	avg /= float64(len(r.Rows))
	return
}

// String renders the runtimes table.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — runtimes (%s), seconds of wall-clock on this host\n", r.Cfg)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %14s %8s %8s\n",
		"benchmark", "complete", "SMARTS", "AW-MRRL", "live-points", "points", "±CI")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %12.2f %12.2f %12.2f %14.3f %8d %7.1f%%\n",
			row.Bench, row.Complete, row.SMARTS, row.AWMRRL, row.LivePoints, row.LPPoints, 100*row.LPRelCI)
	}
	line := func(label string, get func(Table2Row) float64, format string) {
		mn, avg, mx := r.MinAvgMax(get)
		fmt.Fprintf(&b, "%-14s min "+format+"  avg "+format+"  max "+format+"\n", label, mn, avg, mx)
	}
	line("complete", func(x Table2Row) float64 { return x.Complete }, "%10.2fs")
	line("SMARTS", func(x Table2Row) float64 { return x.SMARTS }, "%10.2fs")
	line("AW-MRRL", func(x Table2Row) float64 { return x.AWMRRL }, "%10.2fs")
	line("live-points", func(x Table2Row) float64 { return x.LivePoints }, "%10.3fs")
	_, a1, _ := r.MinAvgMax(func(x Table2Row) float64 { return x.SMARTS })
	_, a2, _ := r.MinAvgMax(func(x Table2Row) float64 { return x.LivePoints })
	if a2 > 0 {
		fmt.Fprintf(&b, "speedup of live-points over SMARTS (avg): %.0fx (paper: ~277x at full SPEC2K length; grows with benchmark length)\n", a1/a2)
	}
	return b.String()
}

// --- accuracy headline -----------------------------------------------------------

// AccuracyRow is one benchmark's live-point estimate versus complete
// simulation.
type AccuracyRow struct {
	Bench        string
	GoldenCPI    float64
	Estimate     float64
	Err          float64 // signed relative error
	RelCI        float64 // achieved half-width
	Points       int
	UnknownLoads float64 // per window (paper: < 1)
}

// AccuracyResult is the headline ±3 % at 99.7 % confidence check.
type AccuracyResult struct {
	Cfg  string
	Rows []AccuracyRow
}

// RunAccuracy estimates every benchmark's CPI from its live-point library
// with the paper's confidence target and compares with complete simulation.
func (c *Context) RunAccuracy(cfg uarch.Config) (*AccuracyResult, error) {
	res := &AccuracyResult{Cfg: cfg.Name}
	rows := make(map[string]AccuracyRow)
	err := c.forEachBench(func(name string) error {
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return err
		}
		lib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
		if err != nil {
			return err
		}
		lr, err := livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg, Z: c.Z, RelErr: c.RelErr})
		if err != nil {
			return err
		}
		if lr.CaptureErrors > 0 {
			return fmt.Errorf("harness: %s: %d capture errors", name, lr.CaptureErrors)
		}
		c.mu.Lock()
		rows[name] = AccuracyRow{
			Bench:        name,
			GoldenCPI:    golden.CPI,
			Estimate:     lr.Est.Mean(),
			Err:          (lr.Est.Mean() - golden.CPI) / golden.CPI,
			RelCI:        lr.Est.RelCI(c.Z),
			Points:       lr.Processed,
			UnknownLoads: float64(lr.UnknownLoads) / float64(lr.Processed),
		}
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range c.BenchNames() {
		res.Rows = append(res.Rows, rows[name])
	}
	return res, nil
}

// String renders the accuracy table.
func (r *AccuracyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Accuracy — live-point CPI estimates vs complete simulation (%s, target ±3%% @ 99.7%%)\n", r.Cfg)
	fmt.Fprintf(&b, "%-14s %10s %10s %9s %9s %8s %12s\n", "benchmark", "true CPI", "estimate", "error", "±CI", "points", "unk loads/w")
	within := 0
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %10.4f %10.4f %+8.2f%% %8.2f%% %8d %12.3f\n",
			row.Bench, row.GoldenCPI, row.Estimate, 100*row.Err, 100*row.RelCI, row.Points, row.UnknownLoads)
		if math.Abs(row.Err) <= row.RelCI+0.03 {
			within++
		}
	}
	fmt.Fprintf(&b, "%d/%d benchmarks within CI+3%% of truth\n", within, len(r.Rows))
	return b.String()
}

// --- matched-pair comparison (§6.2) ----------------------------------------------

// MatchedRow is one design-change sensitivity result.
type MatchedRow struct {
	Change    string
	RelDelta  float64 // estimated CPI change
	Reduction float64 // matched-pair sample-size reduction factor
	PairsUsed int
	NoImpact  bool
}

// MatchedResult is the §6.2 reproduction.
type MatchedResult struct {
	Bench string
	Rows  []MatchedRow
}

// DesignChanges returns the experimental variants of the baseline used for
// the sensitivity study (latencies, queue sizes, functional-unit mix —
// §6.2), all reconstructible from a baseline-maximum library.
func DesignChanges(base uarch.Config) []struct {
	Name string
	Cfg  uarch.Config
} {
	mk := func(name string, mod func(*uarch.Config)) struct {
		Name string
		Cfg  uarch.Config
	} {
		cfg := base
		mod(&cfg)
		cfg.Name = name
		return struct {
			Name string
			Cfg  uarch.Config
		}{name, cfg}
	}
	return []struct {
		Name string
		Cfg  uarch.Config
	}{
		mk("mem-lat+50%", func(c *uarch.Config) { c.Hier.MemLat = 150 }),
		mk("L2-half", func(c *uarch.Config) { c.Hier.L2.SizeBytes /= 2 }),
		mk("L1D-half", func(c *uarch.Config) { c.Hier.L1D.SizeBytes /= 2 }),
		mk("RUU-half", func(c *uarch.Config) { c.RUUSize /= 2; c.LSQSize /= 2 }),
		mk("IALU-half", func(c *uarch.Config) { c.IntALU /= 2 }),
		mk("L2-lat+4", func(c *uarch.Config) { c.Hier.L2.HitLat += 4 }),
		mk("mispred+3", func(c *uarch.Config) { c.BranchPenalty += 3 }),
		// A change expected to have no appreciable impact: one more
		// store-buffer entry.
		mk("sbuf+1", func(c *uarch.Config) { c.Hier.StoreBufSize++ }),
	}
}

// RunMatchedPair measures each design change with matched-pair comparison
// over one benchmark's library, reporting the sample-size reduction factor
// versus an absolute measurement (paper: 3.5–150x).
func (c *Context) RunMatchedPair(bench string, base uarch.Config) (*MatchedResult, error) {
	lib, err := c.EnsureLibrary(bench, base, []bpred.Config{base.BP}, LibFull, 0)
	if err != nil {
		return nil, err
	}
	res := &MatchedResult{Bench: bench}
	for _, ch := range DesignChanges(base) {
		mr, err := livepoint.RunMatchedFile(lib.Path, livepoint.MatchedOpts{
			Base:              base,
			Exp:               ch.Cfg,
			Z:                 c.Z,
			RelErr:            c.RelErr / 2,
			NoImpactThreshold: 0.03,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: matched pair %s: %w", ch.Name, err)
		}
		res.Rows = append(res.Rows, MatchedRow{
			Change:    ch.Name,
			RelDelta:  mr.MP.RelDelta(),
			Reduction: mr.MP.SampleSizeReduction(),
			PairsUsed: mr.Processed,
			NoImpact:  mr.StoppedNoImpact,
		})
	}
	return res, nil
}

// String renders the sensitivity table.
func (r *MatchedResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matched-pair comparison (§6.2) on %s: sample-size reduction vs absolute estimates\n", r.Bench)
	fmt.Fprintf(&b, "%-14s %12s %12s %8s %10s\n", "change", "ΔCPI", "reduction", "pairs", "no-impact")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %+11.2f%% %11.1fx %8d %10v\n",
			row.Change, 100*row.RelDelta, row.Reduction, row.PairsUsed, row.NoImpact)
	}
	return b.String()
}

// --- scaling with benchmark length (Table 3 / §7.2) ---------------------------

// ScalingRow is one benchmark-length point.
type ScalingRow struct {
	Scale      float64
	BenchLen   uint64
	SMARTS     float64 // seconds
	LivePoints float64 // seconds
}

// ScalingResult demonstrates O(benchmark) SMARTS versus O(sample)
// live-points.
type ScalingResult struct {
	Bench string
	Rows  []ScalingRow
}

// RunScaling sweeps benchmark length and measures SMARTS versus live-point
// turnaround (library creation excluded, as in the paper's methodology:
// creation is amortized across experiments).
func (c *Context) RunScaling(bench string, cfg uarch.Config, scales []float64) (*ScalingResult, error) {
	res := &ScalingResult{Bench: bench}
	for _, s := range scales {
		sub := NewContext(c.OutDir, s)
		// Hold the sample size constant across lengths: the paper's claim
		// is that live-point turnaround depends on sample size alone,
		// while SMARTS turnaround tracks benchmark length.
		sub.MaxLibPoints = 100
		sub.Log = c.Log
		benchLen, err := sub.BenchLen(bench)
		if err != nil {
			return nil, err
		}
		p, err := sub.Program(bench)
		if err != nil {
			return nil, err
		}
		design, err := sub.LibraryDesign(bench, cfg, 0)
		if err != nil {
			return nil, err
		}
		sm, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
		if err != nil {
			return nil, err
		}
		lib, err := sub.EnsureLibrary(bench, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
		if err != nil {
			return nil, err
		}
		lr, err := livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg, Z: c.Z, RelErr: c.RelErr})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ScalingRow{
			Scale:      s,
			BenchLen:   benchLen,
			SMARTS:     (sm.FuncWarmTime + sm.DetailedTime).Seconds(),
			LivePoints: (lr.LoadTime + lr.SimTime).Seconds(),
		})
	}
	return res, nil
}

// String renders the scaling sweep.
func (r *ScalingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling — turnaround vs benchmark length (%s): SMARTS is O(B), live-points O(sample)\n", r.Bench)
	fmt.Fprintf(&b, "%8s %14s %12s %14s\n", "scale", "instructions", "SMARTS", "live-points")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.2f %14d %11.2fs %13.3fs\n", row.Scale, row.BenchLen, row.SMARTS, row.LivePoints)
	}
	if n := len(r.Rows); n >= 2 {
		g := r.Rows[n-1]
		s := r.Rows[0]
		fmt.Fprintf(&b, "length grew %.1fx; SMARTS time grew %.1fx; live-point time grew %.1fx\n",
			float64(g.BenchLen)/float64(s.BenchLen), g.SMARTS/s.SMARTS, g.LivePoints/s.LivePoints)
	}
	return b.String()
}

// --- online convergence demo (§6.1) ----------------------------------------------

// OnlineResult captures a convergence history.
type OnlineResult struct {
	Bench   string
	History []sampling.Snapshot
	Final   sampling.Estimate
}

// RunOnlineDemo processes one shuffled library recording the running
// estimate after every point (§6.1's online reporting).
func (c *Context) RunOnlineDemo(bench string, cfg uarch.Config) (*OnlineResult, error) {
	lib, err := c.EnsureLibrary(bench, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
	if err != nil {
		return nil, err
	}
	lr, err := livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg, RecordHistory: true})
	if err != nil {
		return nil, err
	}
	return &OnlineResult{Bench: bench, History: lr.History, Final: lr.Est}, nil
}

// String renders convergence checkpoints.
func (r *OnlineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online results (§6.1) — %s: estimate and confidence while simulation runs\n", r.Bench)
	fmt.Fprintf(&b, "%8s %12s %10s\n", "points", "CPI", "±CI")
	marks := []int{10, 30, 50, 100, 200, 400, 800, 1600}
	for _, m := range marks {
		if m-1 < len(r.History) {
			s := r.History[m-1]
			fmt.Fprintf(&b, "%8d %12.4f %9.2f%%\n", s.N, s.Mean, 100*s.RelCI)
		}
	}
	if n := len(r.History); n > 0 {
		s := r.History[n-1]
		fmt.Fprintf(&b, "%8d %12.4f %9.2f%%  (final)\n", s.N, s.Mean, 100*s.RelCI)
	}
	return b.String()
}

// --- Table 3: summary --------------------------------------------------------------

// Table3Result is the summary assembled from the other experiments.
type Table3Result struct {
	Fig4          *BiasResult // AW stitched
	Fig4Unstitch  *BiasResult
	Fig5          *BiasResult
	Table2        *Table2Result
	LibraryBytes  int64 // total library file size across the suite (shards + footer index)
	LibraryPoints int
}

// RunTable3 aggregates bias, runtime and storage into the paper's summary
// table. The component results must come from the same Context.
func (c *Context) RunTable3(fig4, fig4u, fig5 *BiasResult, t2 *Table2Result, cfg uarch.Config) (*Table3Result, error) {
	res := &Table3Result{Fig4: fig4, Fig4Unstitch: fig4u, Fig5: fig5, Table2: t2}
	for _, name := range c.BenchNames() {
		lib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
		if err != nil {
			return nil, err
		}
		res.LibraryBytes += lib.CompressedBytes
		res.LibraryPoints += lib.Points
	}
	return res, nil
}

// String renders the summary.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 3 — summary of simulation sampling warming methods")
	_, fullAvg, _ := 0.0, 0.0, 0.0
	var fullWorst float64
	for _, row := range r.Fig4.Rows {
		fullAvg += row.BaselineBias
		fullWorst = math.Max(fullWorst, row.BaselineBias)
	}
	fullAvg /= float64(len(r.Fig4.Rows))
	_, awAvg, _ := r.Fig4.Avg()
	awWorst, _ := r.Fig4.Worst()
	_, awuAvg, _ := r.Fig4Unstitch.Avg()
	awuWorst, _ := r.Fig4Unstitch.Worst()
	// For live-points, the Figure 5 baseline column IS full live-state.
	var lpAvg, lpWorst float64
	for _, row := range r.Fig5.Rows {
		lpAvg += row.BaselineBias
		lpWorst = math.Max(lpWorst, row.BaselineBias)
	}
	lpAvg /= float64(len(r.Fig5.Rows))

	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "", "Full warming (SMARTS)", "AW-MRRL", "Live-points")
	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "Avg (worst) CPI bias",
		fmt.Sprintf("%.2f%% (%.2f%%)", 100*fullAvg, 100*fullWorst),
		fmt.Sprintf("%.2f%% (%.2f%%)*", 100*awAvg, 100*awWorst),
		fmt.Sprintf("%.2f%% (%.2f%%)", 100*lpAvg, 100*lpWorst))
	_, sAvg, _ := r.Table2.MinAvgMax(func(x Table2Row) float64 { return x.SMARTS })
	_, aAvg, _ := r.Table2.MinAvgMax(func(x Table2Row) float64 { return x.AWMRRL })
	_, lAvg, _ := r.Table2.MinAvgMax(func(x Table2Row) float64 { return x.LivePoints })
	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "Avg benchmark runtime",
		fmt.Sprintf("%.1fs", sAvg), fmt.Sprintf("%.1fs", aAvg), fmt.Sprintf("%.2fs", lAvg))
	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "Scaling behaviour", "O(B)", "O(1)", "O(C)")
	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "Independent checkpoints", "n/a", "no*", "yes")
	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "Suite library size", "n/a", "-",
		fmt.Sprintf("%.1f MB / %d pts", float64(r.LibraryBytes)/(1<<20), r.LibraryPoints))
	fmt.Fprintf(&b, "%-28s %-22s %-22s %-22s\n", "Fixed parameters", "none", "none", "max cache/TLB, bpred set")
	fmt.Fprintf(&b, "* unstitched AW-MRRL: avg %.2f%%, worst %.2f%% bias (independent checkpoints)\n",
		100*awuAvg, 100*awuWorst)
	return b.String()
}
