package harness

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"slices"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
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

// table2 measures per-benchmark wall-clock, in seconds, for all four
// techniques: complete detailed simulation (sim-outorder), SMARTS (full
// warming), AW-MRRL (warming + detailed, fast-forward excluded) and
// live-points (load + simulate, where load is the time the run loop
// spent getting and decoding blobs: a shard inflate the store source read
// ahead counts only while the loop waited for it). The live-point runs
// use the online stopping rule (target RelErr at confidence Z) against
// the shuffled library; the other techniques traverse the full sample
// design.
func (c *Context) table2(cfg uarch.Config) (*Table, error) {
	rows, err := perBench(c, func(name string) (Row, error) {
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return Row{}, err
		}
		sm, aw, err := c.warmingRuns(name, cfg, 0, true)
		if err != nil {
			return Row{}, err
		}
		lr, err := c.estimate(name, cfg)
		if err != nil {
			return Row{}, err
		}
		return Row{name, []Cell{
			num("%.2f", golden.Seconds),
			num("%.2f", (sm.FuncWarmTime + sm.DetailedTime).Seconds()),
			num("%.2f", (aw.WarmTime + aw.DetailedTime).Seconds()),
			num("%.3f", (lr.LoadTime + lr.SimTime).Seconds()),
			num("%.0f", float64(lr.Processed)),
			num("%.1f%%", 100*lr.Est.RelCI(c.Z)),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Table 2 — runtimes (%s), seconds of wall-clock on this host", cfg.Name),
		Columns: []string{"benchmark", "complete", "SMARTS", "AW-MRRL", "live-points", "points", "±CI"},
		Rows:    rows,
	}
	for _, col := range t.Columns[1:5] {
		xs := t.column(col)
		t.Notes = append(t.Notes, fmt.Sprintf("%-12s min %.3fs  avg %.3fs  max %.3fs", col, slices.Min(xs), mean(xs), slices.Max(xs)))
	}
	speedup := mean(t.column("SMARTS")) / math.Max(mean(t.column("live-points")), 1e-9)
	t.Headlines = []Headline{{"speedup-vs-SMARTS", speedup, "~277x at full SPEC2K length; grows with benchmark length"}}
	return c.keep("table2-"+cfg.Name, t), nil
}

// estimate runs the benchmark's full live-point library under cfg until the
// confidence target (Z, RelErr) is met.
func (c *Context) estimate(name string, cfg uarch.Config) (*livepoint.RunResult, error) {
	lib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
	if err != nil {
		return nil, err
	}
	return livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg, Z: c.Z, RelErr: c.RelErr})
}

// --- accuracy headline -----------------------------------------------------------

// accuracy estimates every benchmark's CPI from its live-point library with
// the paper's confidence target and compares it with complete simulation.
func (c *Context) accuracy() (*Table, error) {
	cfg := uarch.Config8Way()
	rows, err := perBench(c, func(name string) (Row, error) {
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return Row{}, err
		}
		lr, err := c.estimate(name, cfg)
		if err != nil {
			return Row{}, err
		}
		if lr.CaptureErrors > 0 {
			return Row{}, fmt.Errorf("harness: %s: %d capture errors", name, lr.CaptureErrors)
		}
		est := lr.Est.Mean()
		return Row{name, []Cell{
			num("%.4f", golden.CPI),
			num("%.4f", est),
			num("%+.2f%%", 100*(est-golden.CPI)/golden.CPI),
			num("%.2f%%", 100*lr.Est.RelCI(c.Z)),
			num("%.0f", float64(lr.Processed)),
			num("%.3f", float64(lr.UnknownLoads)/float64(lr.Processed)),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Accuracy — live-point CPI estimates vs complete simulation (%s, target ±3%% @ 99.7%%)", cfg.Name),
		Columns: []string{"benchmark", "true CPI", "estimate", "error", "±CI", "points", "unknown loads/window"},
		Rows:    rows,
	}
	errs, cis := t.column("error"), t.column("±CI")
	within, worst := 0, 0.0
	for i, e := range errs {
		if math.Abs(e) <= cis[i]+3 {
			within++
		}
		worst = max(worst, math.Abs(e))
	}
	t.Headlines = []Headline{
		{"worst-err-%", worst, "±3 % at 99.7 % confidence"},
		{"unknown-loads/w", slices.Max(t.column("unknown loads/window")), "< 1"},
	}
	t.Notes = []string{fmt.Sprintf("%d/%d benchmarks within CI+3%% of truth", within, len(rows))}
	return t, nil
}

// --- matched-pair comparison (§6.2) ----------------------------------------------

// DesignChanges returns the experimental variants of the baseline used for
// the sensitivity study (latencies, queue sizes, functional-unit mix —
// §6.2), all reconstructible from a baseline-maximum library.
func DesignChanges(base uarch.Config) []uarch.Config {
	mk := func(name string, mod func(*uarch.Config)) uarch.Config {
		cfg := base
		mod(&cfg)
		cfg.Name = name
		return cfg
	}
	return []uarch.Config{
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

// matched measures each design change with matched-pair comparison over
// syn.gcc's library, reporting the sample-size reduction factor versus an
// absolute measurement.
func (c *Context) matched() (*Table, error) {
	const bench = "syn.gcc"
	base := uarch.Config8Way()
	lib, err := c.EnsureLibrary(bench, base, []bpred.Config{base.BP}, LibFull, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Matched-pair comparison (§6.2) on %s: sample-size reduction vs absolute estimates", bench),
		Columns: []string{"change", "ΔCPI", "reduction", "pairs", "no-impact"},
	}
	for _, exp := range DesignChanges(base) {
		mr, err := livepoint.RunMatchedFile(lib.Path, livepoint.MatchedOpts{
			Base:              base,
			Exp:               exp,
			Z:                 c.Z,
			RelErr:            c.RelErr / 2,
			NoImpactThreshold: 0.03,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: matched pair %s: %w", exp.Name, err)
		}
		t.Rows = append(t.Rows, Row{exp.Name, []Cell{
			num("%+.2f%%", 100*mr.MP.RelDelta()),
			num("%.1fx", mr.MP.SampleSizeReduction()),
			num("%.0f", float64(mr.Processed)),
			text(fmt.Sprint(mr.StoppedNoImpact)),
		}})
	}
	t.Headlines = []Headline{{"max-reduction-x", slices.Max(t.column("reduction")), "3.5-150x"}}
	return t, nil
}

// --- scaling with benchmark length (Table 3 / §7.2) ---------------------------

// scaling sweeps syn.gzip's length over {0.4, 0.8, 1.6, 3.2} × Scale and
// measures SMARTS versus live-point turnaround in seconds (library creation
// excluded, as in the paper's methodology: creation is amortized across
// experiments).
func (c *Context) scaling() (*Table, error) {
	const bench = "syn.gzip"
	cfg := uarch.Config8Way()
	t := &Table{
		Title:   fmt.Sprintf("Scaling — turnaround vs benchmark length (%s): SMARTS is O(B), live-points O(sample)", bench),
		Columns: []string{"scale", "instructions", "SMARTS", "live-points"},
	}
	for _, m := range []float64{0.4, 0.8, 1.6, 3.2} {
		sub := NewContext(c.OutDir, m*c.Scale)
		// Hold the sample size constant across lengths: the paper's claim
		// is that live-point turnaround depends on sample size alone,
		// while SMARTS turnaround tracks benchmark length.
		sub.MaxLibPoints = 100
		sub.Z, sub.RelErr = c.Z, c.RelErr
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
		lr, err := sub.estimate(bench, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{fmt.Sprintf("%g", sub.Scale), []Cell{
			num("%.0f", float64(benchLen)),
			num("%.2f", (sm.FuncWarmTime + sm.DetailedTime).Seconds()),
			num("%.3f", (lr.LoadTime + lr.SimTime).Seconds()),
		}})
	}
	growth := func(col string) float64 {
		xs := t.column(col)
		return xs[len(xs)-1] / math.Max(xs[0], 1e-9)
	}
	t.Headlines = []Headline{
		{"length-growth-x", growth("instructions"), ""},
		{"smarts-growth-x", growth("SMARTS"), "grows with length, O(B)"},
		{"lp-growth-x", growth("live-points"), "flat, O(sample)"},
	}
	return t, nil
}

// --- online convergence demo (§6.1) ----------------------------------------------

// online processes syn.gcc's shuffled library recording the running
// estimate after every point (§6.1's online reporting).
func (c *Context) online() (*Table, error) {
	const bench = "syn.gcc"
	cfg := uarch.Config8Way()
	lib, err := c.EnsureLibrary(bench, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
	if err != nil {
		return nil, err
	}
	lr, err := livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg, RecordHistory: true})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Online results (§6.1) — %s: estimate and confidence while simulation runs", bench),
		Columns: []string{"points", "CPI", "±CI"},
	}
	row := func(label string, s sampling.Snapshot) {
		t.Rows = append(t.Rows, Row{label, []Cell{num("%.4f", s.Mean), num("%.2f%%", 100*s.RelCI)}})
	}
	for _, m := range []int{10, 30, 50, 100, 200, 400, 800, 1600} {
		if m <= len(lr.History) {
			row(fmt.Sprint(m), lr.History[m-1])
		}
	}
	if n := len(lr.History); n > 0 {
		row(fmt.Sprintf("%d (final)", n), lr.History[n-1])
	}
	t.Headlines = []Headline{{"final-CI-%", 100 * lr.Est.RelCI(c.Z), ""}}
	return t, nil
}

// --- Table 3: summary --------------------------------------------------------------

// table3 assembles bias, runtime and storage into the paper's summary
// table from this Context's Figure 4, Figure 5 and 8-way Table 2.
func (c *Context) table3() (*Table, error) {
	cfg := uarch.Config8Way()
	fig4, err := c.kept("fig4-stitched", func() (*Table, error) { return c.figure4(true) })
	if err != nil {
		return nil, err
	}
	fig4u, err := c.kept("fig4-unstitched", func() (*Table, error) { return c.figure4(false) })
	if err != nil {
		return nil, err
	}
	fig5, err := c.kept("fig5", c.figure5)
	if err != nil {
		return nil, err
	}
	t2, err := c.kept("table2-"+cfg.Name, func() (*Table, error) { return c.table2(cfg) })
	if err != nil {
		return nil, err
	}
	// The whole library files: shards plus the footer index.
	var libBytes int64
	var libPoints int
	for _, name := range c.BenchNames() {
		lib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibFull, 0)
		if err != nil {
			return nil, err
		}
		libBytes += lib.CompressedBytes
		libPoints += lib.Points
	}

	full, aw, awu := fig4.column("full warming"), fig4.column("AW-MRRL"), fig4u.column("AW-MRRL")
	// For live-points, the Figure 5 baseline column IS full live-state.
	lp := fig5.column("full live-state")
	pct := func(v float64) Cell { return num("%.2f%%", v) }
	runtime := func(col, format string) Cell { return num(format, mean(t2.column(col))) }
	return &Table{
		Title:   "Table 3 — summary of simulation sampling warming methods",
		Columns: []string{"", "Full warming (SMARTS)", "AW-MRRL", "Live-points"},
		Rows: []Row{
			{"Avg CPI bias", []Cell{pct(mean(full)), pct(mean(aw)), pct(mean(lp))}},
			{"Worst CPI bias", []Cell{pct(slices.Max(full)), pct(slices.Max(aw)), pct(slices.Max(lp))}},
			{"Avg benchmark runtime (s)", []Cell{runtime("SMARTS", "%.1f"), runtime("AW-MRRL", "%.1f"), runtime("live-points", "%.2f")}},
			{"Scaling behaviour", []Cell{text("O(B)"), text("O(1)"), text("O(C)")}},
			{"Independent checkpoints", []Cell{text("n/a"), text("no*"), text("yes")}},
			{"Suite library MB", []Cell{text("n/a"), text("-"), num("%.1f", float64(libBytes)/(1<<20))}},
			{"Suite library points", []Cell{text("n/a"), text("-"), num("%.0f", float64(libPoints))}},
			{"Fixed parameters", []Cell{text("none"), text("none"), text("max cache/TLB, bpred set")}},
		},
		Notes: []string{fmt.Sprintf("* unstitched AW-MRRL: avg %.2f%%, worst %.2f%% bias (independent checkpoints)", mean(awu), slices.Max(awu))},
	}, nil
}
