package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/mrrl"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// --- Table 1: microarchitectural configurations -----------------------------

// Table1 renders the two simulated configurations (paper Table 1).
func Table1() string {
	var b strings.Builder
	row := func(k, v8, v16 string) { fmt.Fprintf(&b, "%-24s %-28s %-28s\n", k, v8, v16) }
	c8, c16 := uarch.Config8Way(), uarch.Config16Way()
	row("Parameter", c8.Name+" (baseline)", c16.Name)
	row("RUU/LSQ size", fmt.Sprintf("%d/%d", c8.RUUSize, c8.LSQSize), fmt.Sprintf("%d/%d", c16.RUUSize, c16.LSQSize))
	memSys := func(c uarch.Config) string {
		return fmt.Sprintf("%dKB %d-way L1, %dMB %d-way L2", c.Hier.L1D.SizeBytes>>10, c.Hier.L1D.Assoc,
			c.Hier.L2.SizeBytes>>20, c.Hier.L2.Assoc)
	}
	row("Memory system", memSys(c8), memSys(c16))
	row("Ports/MSHRs/store buf",
		fmt.Sprintf("%d/%d/%d", c8.MemPorts, c8.Hier.DMSHRs, c8.Hier.StoreBufSize),
		fmt.Sprintf("%d/%d/%d", c16.MemPorts, c16.Hier.DMSHRs, c16.Hier.StoreBufSize))
	row("L1/L2/mem latency",
		fmt.Sprintf("%d/%d/%d cycles", c8.Hier.L1D.HitLat, c8.Hier.L2.HitLat, c8.Hier.MemLat),
		fmt.Sprintf("%d/%d/%d cycles", c16.Hier.L1D.HitLat, c16.Hier.L2.HitLat, c16.Hier.MemLat))
	row("ITLB/DTLB entries",
		fmt.Sprintf("%d/%d, %d-cycle miss", c8.Hier.ITLB.Lines(), c8.Hier.DTLB.Lines(), c8.Hier.TLBMissLat),
		fmt.Sprintf("%d/%d, %d-cycle miss", c16.Hier.ITLB.Lines(), c16.Hier.DTLB.Lines(), c16.Hier.TLBMissLat))
	row("Functional units",
		fmt.Sprintf("%d IALU %d IMUL %d FPALU %d FPMUL", c8.IntALU, c8.IntMul, c8.FPALU, c8.FPMul),
		fmt.Sprintf("%d IALU %d IMUL %d FPALU %d FPMUL", c16.IntALU, c16.IntMul, c16.FPALU, c16.FPMul))
	row("Branch predictor",
		fmt.Sprintf("combined %dK tables, %d-cycle mispred, %d pred/cycle", c8.BP.TableSize>>10, c8.BranchPenalty, c8.PredsPerCycle),
		fmt.Sprintf("combined %dK tables, %d-cycle mispred, %d pred/cycle", c16.BP.TableSize>>10, c16.BranchPenalty, c16.PredsPerCycle))
	row("Detailed warming", fmt.Sprintf("%d instructions", c8.DetailedWarm), fmt.Sprintf("%d instructions", c16.DetailedWarm))
	return b.String()
}

// --- Figure 1: functional warming dominates SMARTS ---------------------------

// Figure1Row is one benchmark's SMARTS runtime split.
type Figure1Row struct {
	Bench         string
	WarmInsts     uint64
	DetailedInsts uint64
	WarmSeconds   float64
	DetSeconds    float64
}

// WarmShare returns the fraction of runtime spent functionally warming.
func (r Figure1Row) WarmShare() float64 {
	t := r.WarmSeconds + r.DetSeconds
	if t == 0 {
		return 0
	}
	return r.WarmSeconds / t
}

// Figure1Result is the Figure 1 reproduction.
type Figure1Result struct {
	Rows []Figure1Row
	Cfg  string
}

// RunFigure1 measures the SMARTS runtime split between functional warming
// and detailed windows across the suite.
func (c *Context) RunFigure1(cfg uarch.Config) (*Figure1Result, error) {
	res := &Figure1Result{Cfg: cfg.Name}
	rows := make(map[string]Figure1Row)
	var mu = &c.mu
	err := c.forEachBench(func(name string) error {
		p, err := c.Program(name)
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
		mu.Lock()
		rows[name] = Figure1Row{
			Bench:         name,
			WarmInsts:     sm.FuncWarmInsts,
			DetailedInsts: sm.DetailedInsts,
			WarmSeconds:   sm.FuncWarmTime.Seconds(),
			DetSeconds:    sm.DetailedTime.Seconds(),
		}
		mu.Unlock()
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

// String renders the figure as a table.
func (r *Figure1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — SMARTS runtime split (%s): functional warming dominates\n", r.Cfg)
	fmt.Fprintf(&b, "%-14s %14s %14s %10s\n", "benchmark", "warm insts", "detail insts", "warm time")
	var totW, totD float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %14d %14d %9.1f%%\n", row.Bench, row.WarmInsts, row.DetailedInsts, 100*row.WarmShare())
		totW += row.WarmSeconds
		totD += row.DetSeconds
	}
	if totW+totD > 0 {
		fmt.Fprintf(&b, "%-14s %44.1f%%  (paper: >99%% at full SPEC2K length)\n", "suite", 100*totW/(totW+totD))
	}
	return b.String()
}

// --- Figures 4 and 5: bias experiments ----------------------------------------

// BiasRow is one benchmark's bias under a technique versus the full-warming
// baseline, averaged over sample offsets.
type BiasRow struct {
	Bench          string
	BaselineBias   float64 // full warming (SMARTS) vs complete simulation
	TechniqueBias  float64 // the technique under test vs complete simulation
	AdditionalBias float64 // TechniqueBias - BaselineBias
}

// BiasResult is a Figure 4 / Figure 5 style experiment outcome.
type BiasResult struct {
	Title string
	Rows  []BiasRow
}

// Avg returns average baseline, technique, and additional bias.
func (r *BiasResult) Avg() (base, tech, add float64) {
	if len(r.Rows) == 0 {
		return
	}
	for _, row := range r.Rows {
		base += row.BaselineBias
		tech += row.TechniqueBias
		add += row.AdditionalBias
	}
	n := float64(len(r.Rows))
	return base / n, tech / n, add / n
}

// Worst returns the largest technique bias and additional bias.
func (r *BiasResult) Worst() (tech, add float64) {
	for _, row := range r.Rows {
		tech = math.Max(tech, row.TechniqueBias)
		add = math.Max(add, row.AdditionalBias)
	}
	return
}

// String renders the experiment sorted by additional bias (paper style).
func (r *BiasResult) String() string {
	rows := make([]BiasRow, len(r.Rows))
	copy(rows, r.Rows)
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].AdditionalBias > rows[i].AdditionalBias {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintln(&b, r.Title)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "benchmark", "full-warm", "technique", "additional")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s %11.2f%% %11.2f%% %+11.2f%%\n",
			row.Bench, 100*row.BaselineBias, 100*row.TechniqueBias, 100*row.AdditionalBias)
	}
	base, tech, add := r.Avg()
	wt, wa := r.Worst()
	fmt.Fprintf(&b, "%-14s %11.2f%% %11.2f%% %+11.2f%%   worst %.2f%% (+%.2f%%)\n",
		"average", 100*base, 100*tech, 100*add, 100*wt, 100*wa)
	return b.String()
}

// RunFigure4 measures adaptive warming's additional CPI bias versus full
// warming (paper Figure 4: avg +1.1 %-ish, worst-case several percent,
// stitched AW-MRRL at 99.9 % reuse).
func (c *Context) RunFigure4(cfg uarch.Config, stitched bool) (*BiasResult, error) {
	title := fmt.Sprintf("Figure 4 — additional CPI bias of AW-MRRL (stitched=%v, %s, %d offsets)", stitched, cfg.Name, c.Offsets)
	res := &BiasResult{Title: title}
	rows := make(map[string]BiasRow)
	err := c.forEachBench(func(name string) error {
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return err
		}
		p, err := c.Program(name)
		if err != nil {
			return err
		}
		var fullBias, awBias float64
		for off := 0; off < c.Offsets; off++ {
			design, err := c.LibraryDesign(name, cfg, off)
			if err != nil {
				return err
			}
			sm, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
			if err != nil {
				return err
			}
			lens, _, err := c.MRRLWarmLens(name, cfg, off)
			if err != nil {
				return err
			}
			aw, err := mrrl.RunAW(cfg, p, design, analysisFor(lens), mrrl.AWOpts{Stitched: stitched})
			if err != nil {
				return err
			}
			fullBias += math.Abs(sm.Est.Mean()-golden.CPI) / golden.CPI
			awBias += math.Abs(aw.Est.Mean()-golden.CPI) / golden.CPI
		}
		fullBias /= float64(c.Offsets)
		awBias /= float64(c.Offsets)
		c.mu.Lock()
		rows[name] = BiasRow{Bench: name, BaselineBias: fullBias, TechniqueBias: awBias, AdditionalBias: awBias - fullBias}
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

// RunFigure5 measures restricted live-state's additional bias versus full
// live-points (paper Figure 5: avg +0.1 %, worst +3.3 %).
func (c *Context) RunFigure5(cfg uarch.Config) (*BiasResult, error) {
	title := fmt.Sprintf("Figure 5 — additional CPI bias of restricted live-state (%s, %d offsets)", cfg.Name, c.Offsets)
	res := &BiasResult{Title: title}
	rows := make(map[string]BiasRow)
	err := c.forEachBench(func(name string) error {
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return err
		}
		var fullBias, restBias float64
		for off := 0; off < c.Offsets; off++ {
			fullLib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibFull, off)
			if err != nil {
				return err
			}
			restLib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, LibRestricted, off)
			if err != nil {
				return err
			}
			fr, err := livepoint.RunFile(fullLib.Path, livepoint.RunOpts{Cfg: cfg})
			if err != nil {
				return err
			}
			rr, err := livepoint.RunFile(restLib.Path, livepoint.RunOpts{Cfg: cfg})
			if err != nil {
				return err
			}
			if fr.CaptureErrors > 0 {
				return fmt.Errorf("harness: %s full library has %d capture errors", name, fr.CaptureErrors)
			}
			fullBias += math.Abs(fr.Est.Mean()-golden.CPI) / golden.CPI
			restBias += math.Abs(rr.Est.Mean()-golden.CPI) / golden.CPI
		}
		fullBias /= float64(c.Offsets)
		restBias /= float64(c.Offsets)
		c.mu.Lock()
		rows[name] = BiasRow{Bench: name, BaselineBias: fullBias, TechniqueBias: restBias, AdditionalBias: restBias - fullBias}
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

// --- Figure 7: live-point size breakdown ---------------------------------------

// Figure7Result is the per-section storage breakdown of a typical
// live-point versus an AW-MRRL checkpoint.
type Figure7Result struct {
	Bench        string
	Breakdown    livepoint.SizeBreakdown // averaged, uncompressed
	LPTotal      int
	LPCompressed int
	AWTotal      int
	AWCompressed int
	// ConventionalBytes is the benchmark's full memory footprint: what a
	// conventional (Simics/SimpleScalar EIO) checkpoint would store.
	ConventionalBytes int64
	Points            int
}

// RunFigure7 measures the encoded size of every live-point section,
// averaged over a handful of points of one benchmark (paper Figure 7).
func (c *Context) RunFigure7(bench string, cfg uarch.Config) (*Figure7Result, error) {
	p, err := c.Program(bench)
	if err != nil {
		return nil, err
	}
	design, err := c.LibraryDesign(bench, cfg, 0)
	if err != nil {
		return nil, err
	}
	// Use a sparsely thinned design: windows from the later part of the
	// run (steady-state warm structures) with wide gaps, so the AW-MRRL
	// comparison point gets realistic multi-hundred-kiloinstruction
	// warming periods rather than gap-capped ones.
	const maxPoints = 8
	design.Positions = spreadPositions(design.Positions, maxPoints)

	res := &Figure7Result{Bench: bench, ConventionalBytes: p.FootprintBytes()}
	sum := livepoint.SizeBreakdown{}
	add := func(dst *livepoint.SizeBreakdown, s livepoint.SizeBreakdown) {
		dst.Header += s.Header
		dst.Arch += s.Arch
		dst.Mem += s.Mem
		dst.Text += s.Text
		dst.L1I += s.L1I
		dst.L1D += s.L1D
		dst.L2 += s.L2
		dst.TLB += s.TLB
		dst.Bpred += s.Bpred
	}
	err = livepoint.Create(p, design, livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}},
		func(lp *livepoint.LivePoint) error {
			blob, bd := livepoint.Encode(lp)
			add(&sum, bd)
			res.LPTotal += len(blob)
			res.LPCompressed += gzipCompressLen(blob)
			res.Points++
			return nil
		})
	if err != nil {
		return nil, err
	}

	// AW-MRRL checkpoints over the same (sparse) windows; the analysis
	// runs directly on the thinned design so warming periods can extend
	// across the full inter-window gaps.
	an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
	if err != nil {
		return nil, err
	}
	awOpts := livepoint.CreateOpts{NoMicroarch: true, FuncWarmLens: an.WarmLens}
	awPoints := 0
	err = livepoint.Create(p, design, awOpts, func(lp *livepoint.LivePoint) error {
		blob, _ := livepoint.Encode(lp)
		res.AWTotal += len(blob)
		res.AWCompressed += gzipCompressLen(blob)
		awPoints++
		return nil
	})
	if err != nil {
		return nil, err
	}

	n := res.Points
	res.Breakdown = livepoint.SizeBreakdown{
		Header: sum.Header / n, Arch: sum.Arch / n, Mem: sum.Mem / n, Text: sum.Text / n,
		L1I: sum.L1I / n, L1D: sum.L1D / n, L2: sum.L2 / n, TLB: sum.TLB / n, Bpred: sum.Bpred / n,
	}
	res.LPTotal /= n
	res.LPCompressed /= n
	res.AWTotal /= awPoints
	res.AWCompressed /= awPoints
	return res, nil
}

// String renders the breakdown (paper Figure 7 layout).
func (r *Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — breakdown of a typical live-point (%s, uncompressed, avg of %d points)\n", r.Bench, r.Points)
	row := func(k string, v int) { fmt.Fprintf(&b, "  %-34s %9.1f KB\n", k, float64(v)/1024) }
	row("registers/PC + header", r.Breakdown.Header+r.Breakdown.Arch)
	row("TLB state (ITLB+DTLB)", r.Breakdown.TLB)
	row("branch predictor", r.Breakdown.Bpred)
	row("L1-I cache tags", r.Breakdown.L1I)
	row("L1-D cache tags", r.Breakdown.L1D)
	row("L2 cache tags", r.Breakdown.L2)
	row("memory data (live-state)", r.Breakdown.Mem)
	row("instruction text", r.Breakdown.Text)
	fmt.Fprintf(&b, "  %-34s %9.1f KB (gzip: %.1f KB)\n", "live-point total", float64(r.LPTotal)/1024, float64(r.LPCompressed)/1024)
	fmt.Fprintf(&b, "  %-34s %9.1f KB (gzip: %.1f KB)\n", "AW-MRRL checkpoint", float64(r.AWTotal)/1024, float64(r.AWCompressed)/1024)
	fmt.Fprintf(&b, "  %-34s %9.1f MB\n", "conventional checkpoint (footprint)", float64(r.ConventionalBytes)/(1<<20))
	return b.String()
}

// --- Figure 8: size/time versus maximum cache --------------------------------

// Figure8Row is one sweep point.
type Figure8Row struct {
	L2MB        int
	BPredTables int
	LPBytes     int     // compressed per-point: gzip of the point alone, no container (a library file adds ≈ 20 B/point of index)
	AWBytes     int     // compressed per-point
	LPMillis    float64 // load+simulate per point
	AWMillis    float64
}

// Figure8Result is the reproduction of Figure 8.
type Figure8Result struct {
	Bench string
	Rows  []Figure8Row
}

// RunFigure8 sweeps the maximum stored cache (1–16 MB L2 with matching
// predictor growth) and measures per-checkpoint compressed size and
// processing time for live-points versus AW-MRRL checkpoints.
func (c *Context) RunFigure8(bench string) (*Figure8Result, error) {
	p, err := c.Program(bench)
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{Bench: bench}

	const points = 6
	baseCfg := uarch.Config8Way()
	design, err := c.LibraryDesign(bench, baseCfg, 0)
	if err != nil {
		return nil, err
	}
	design.Positions = spreadPositions(design.Positions, points)

	// AW checkpoints are microarchitecture-independent: one set. The
	// analysis runs on the thinned design so warming periods are not
	// capped by dense library gaps.
	an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
	if err != nil {
		return nil, err
	}
	var awBlobs [][]byte
	err = livepoint.Create(p, design, livepoint.CreateOpts{NoMicroarch: true, FuncWarmLens: an.WarmLens},
		func(lp *livepoint.LivePoint) error {
			blob, _ := livepoint.Encode(lp)
			awBlobs = append(awBlobs, blob)
			return nil
		})
	if err != nil {
		return nil, err
	}
	awBytes, awMillis := 0, 0.0
	for _, blob := range awBlobs {
		awBytes += gzipCompressLen(blob)
		lp, err := livepoint.Decode(blob)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := livepoint.Simulate(lp, baseCfg); err != nil {
			return nil, err
		}
		awMillis += float64(time.Since(t0).Microseconds()) / 1000
	}
	awBytes /= len(awBlobs)
	awMillis /= float64(len(awBlobs))

	for i, l2mb := range []int{1, 2, 4, 8, 16} {
		cfg := baseCfg
		cfg.Name = fmt.Sprintf("8way-%dm", l2mb)
		cfg.Hier.L2.SizeBytes = int64(l2mb) << 20
		cfg.BP.TableSize = 1024 << i
		cfg.BP.HistBits = 10 + i
		cfg.BP.Name = fmt.Sprintf("comb-%dk", 1<<i)

		var lpBytes int
		var lpMillis float64
		var n int
		err := livepoint.Create(p, design, livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}},
			func(lp *livepoint.LivePoint) error {
				blob, _ := livepoint.Encode(lp)
				lpBytes += gzipCompressLen(blob)
				dec, err := livepoint.Decode(blob)
				if err != nil {
					return err
				}
				t0 := time.Now()
				if _, err := livepoint.Simulate(dec, cfg); err != nil {
					return err
				}
				lpMillis += float64(time.Since(t0).Microseconds()) / 1000
				n++
				return nil
			})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Figure8Row{
			L2MB:        l2mb,
			BPredTables: cfg.BP.TableSize,
			LPBytes:     lpBytes / n,
			AWBytes:     awBytes,
			LPMillis:    lpMillis / float64(n),
			AWMillis:    awMillis,
		})
	}
	return res, nil
}

// String renders the sweep.
func (r *Figure8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — compressed checkpoint size and processing time vs max cache (%s)\n", r.Bench)
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s\n", "max config", "LP size", "AW size", "LP time", "AW time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%2dMB L2 / %5dT %9.1f KB %9.1f KB %9.1f ms %9.1f ms\n",
			row.L2MB, row.BPredTables,
			float64(row.LPBytes)/1024, float64(row.AWBytes)/1024, row.LPMillis, row.AWMillis)
	}
	return b.String()
}
