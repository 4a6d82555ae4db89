package harness

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/mrrl"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// --- Table 1: microarchitectural configurations -----------------------------

// Table1 lists the two simulated configurations (paper Table 1).
func Table1() *Table {
	c8, c16 := uarch.Config8Way(), uarch.Config16Way()
	t := &Table{
		Title:   "Table 1 — microarchitectural configurations",
		Columns: []string{"Parameter", c8.Name + " (baseline)", c16.Name},
	}
	row := func(label string, f func(c uarch.Config) string) {
		t.Rows = append(t.Rows, Row{label, []Cell{text(f(c8)), text(f(c16))}})
	}
	row("RUU/LSQ size", func(c uarch.Config) string { return fmt.Sprintf("%d/%d", c.RUUSize, c.LSQSize) })
	row("Memory system", func(c uarch.Config) string {
		return fmt.Sprintf("%dKB %d-way L1, %dMB %d-way L2", c.Hier.L1D.SizeBytes>>10, c.Hier.L1D.Assoc,
			c.Hier.L2.SizeBytes>>20, c.Hier.L2.Assoc)
	})
	row("Ports/MSHRs/store buf", func(c uarch.Config) string {
		return fmt.Sprintf("%d/%d/%d", c.MemPorts, c.Hier.DMSHRs, c.Hier.StoreBufSize)
	})
	row("L1/L2/mem latency", func(c uarch.Config) string {
		return fmt.Sprintf("%d/%d/%d cycles", c.Hier.L1D.HitLat, c.Hier.L2.HitLat, c.Hier.MemLat)
	})
	row("ITLB/DTLB entries", func(c uarch.Config) string {
		return fmt.Sprintf("%d/%d, %d-cycle miss", c.Hier.ITLB.Lines(), c.Hier.DTLB.Lines(), c.Hier.TLBMissLat)
	})
	row("Functional units", func(c uarch.Config) string {
		return fmt.Sprintf("%d IALU %d IMUL %d FPALU %d FPMUL", c.IntALU, c.IntMul, c.FPALU, c.FPMul)
	})
	row("Branch predictor", func(c uarch.Config) string {
		return fmt.Sprintf("combined %dK tables, %d-cycle mispred, %d pred/cycle", c.BP.TableSize>>10, c.BranchPenalty, c.PredsPerCycle)
	})
	row("Detailed warming", func(c uarch.Config) string { return fmt.Sprintf("%d instructions", c.DetailedWarm) })
	return t
}

// --- Figure 1: functional warming dominates SMARTS ---------------------------

// figure1 measures the SMARTS runtime split between functional warming and
// detailed windows across the suite.
func (c *Context) figure1() (*Table, error) {
	cfg := uarch.Config8Way()
	runs, err := perBench(c, func(name string) (*warm.SMARTSResult, error) {
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		design, err := c.LibraryDesign(name, cfg, 0)
		if err != nil {
			return nil, err
		}
		return warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 1 — SMARTS runtime split (%s): functional warming dominates", cfg.Name),
		Columns: []string{"benchmark", "warm insts", "detail insts", "warm time"},
	}
	var totW, totD float64
	for i, sm := range runs {
		w, d := sm.FuncWarmTime.Seconds(), sm.DetailedTime.Seconds()
		t.Rows = append(t.Rows, Row{c.BenchNames()[i], []Cell{
			num("%.0f", float64(sm.FuncWarmInsts)), num("%.0f", float64(sm.DetailedInsts)), num("%.1f%%", share(w, d)),
		}})
		totW += w
		totD += d
	}
	t.Headlines = []Headline{{"warm-%", share(totW, totD), ">99 % at full SPEC2K length"}}
	return t, nil
}

// share is warming's percentage of warming plus detailed time.
func share(w, d float64) float64 {
	if w+d == 0 {
		return 0
	}
	return 100 * w / (w + d)
}

// --- Figures 4 and 5: bias experiments ----------------------------------------

// biasTable is a Figure 4/5 table: a row per benchmark (biasRow) holding the
// baseline's and the technique's CPI bias against complete simulation and
// the difference, sorted by additional bias, largest first (paper style).
func biasTable(title, baseline, technique string, rows []Row, paperAvg, paperWorst string) *Table {
	t := &Table{Title: title, Columns: []string{"benchmark", baseline, technique, "additional"}, Rows: rows}
	slices.SortStableFunc(t.Rows, func(a, b Row) int { return cmp.Compare(b.Cells[2].V, a.Cells[2].V) })
	base, tech, add := t.column(baseline), t.column(technique), t.column("additional")
	t.Headlines = []Headline{
		{"avg-base-bias-%", mean(base), ""},
		{"avg-bias-%", mean(tech), ""},
		{"avg-add-bias-%", mean(add), paperAvg},
		{"worst-bias-%", slices.Max(tech), ""},
		{"worst-add-bias-%", slices.Max(add), paperWorst},
	}
	return t
}

// biasRow is a benchmark's row of a bias table from its two biases, as
// fractions.
func biasRow(name string, base, tech float64) Row {
	return Row{name, []Cell{num("%.2f%%", 100*base), num("%.2f%%", 100*tech), num("%+.2f%%", 100*(tech-base))}}
}

// biasRows measures every benchmark's CPI bias against complete simulation
// under cfg, for a baseline and a technique, averaged over sample offsets;
// measure returns the two CPI estimates at one offset.
func (c *Context) biasRows(cfg uarch.Config, measure func(name string, off int) (base, tech float64, err error)) ([]Row, error) {
	return perBench(c, func(name string) (Row, error) {
		golden, err := c.GoldenCPI(name, cfg)
		if err != nil {
			return Row{}, err
		}
		var baseBias, techBias float64
		for off := 0; off < c.Offsets; off++ {
			base, tech, err := measure(name, off)
			if err != nil {
				return Row{}, err
			}
			baseBias += math.Abs(base-golden.CPI) / golden.CPI
			techBias += math.Abs(tech-golden.CPI) / golden.CPI
		}
		return biasRow(name, baseBias/float64(c.Offsets), techBias/float64(c.Offsets)), nil
	})
}

// figure4 measures adaptive warming's additional CPI bias versus full
// warming (paper Figure 4: avg +1.1 %-ish, worst-case several percent,
// stitched AW-MRRL at 99.9 % reuse).
func (c *Context) figure4(stitched bool) (*Table, error) {
	cfg := uarch.Config8Way()
	rows, err := c.biasRows(cfg, func(name string, off int) (float64, float64, error) {
		sm, aw, err := c.warmingRuns(name, cfg, off, stitched)
		if err != nil {
			return 0, 0, err
		}
		return sm.Est.Mean(), aw.Est.Mean(), nil
	})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Figure 4 — additional CPI bias of AW-MRRL (stitched=%v, %s, %d offsets)", stitched, cfg.Name, c.Offsets)
	name := "fig4-unstitched"
	if stitched {
		name = "fig4-stitched"
	}
	return c.keep(name, biasTable(title, "full warming", "AW-MRRL", rows, "~+1.1 %", "several %")), nil
}

// figure5 measures restricted live-state's additional bias versus full
// live-points (paper Figure 5: avg +0.1 %, worst +3.3 %).
func (c *Context) figure5() (*Table, error) {
	cfg := uarch.Config8Way()
	rows, err := c.biasRows(cfg, func(name string, off int) (float64, float64, error) {
		var cpi [2]float64
		for i, kind := range []LibraryKind{LibFull, LibRestricted} {
			lib, err := c.EnsureLibrary(name, cfg, []bpred.Config{cfg.BP}, kind, off)
			if err != nil {
				return 0, 0, err
			}
			r, err := livepoint.RunFile(lib.Path, livepoint.RunOpts{Cfg: cfg})
			if err != nil {
				return 0, 0, err
			}
			if kind == LibFull && r.CaptureErrors > 0 {
				return 0, 0, fmt.Errorf("harness: %s full library has %d capture errors", name, r.CaptureErrors)
			}
			cpi[i] = r.Est.Mean()
		}
		return cpi[0], cpi[1], nil
	})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Figure 5 — additional CPI bias of restricted live-state (%s, %d offsets)", cfg.Name, c.Offsets)
	return c.keep("fig5", biasTable(title, "full live-state", "restricted", rows, "+0.1 %", "+3.3 %")), nil
}

// --- Figure 7: live-point size breakdown ---------------------------------------

// figure7 measures the encoded size of every live-point section, averaged
// over a handful of points of syn.gcc, against an AW-MRRL checkpoint and a
// conventional one (paper Figure 7).
func (c *Context) figure7() (*Table, error) {
	const bench = "syn.gcc"
	cfg := uarch.Config8Way()
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

	sections := []string{"registers/PC + header", "TLB state (ITLB+DTLB)", "branch predictor", "L1-I cache tags",
		"L1-D cache tags", "L2 cache tags", "memory data (live-state)", "instruction text"}
	sums := make([]int, len(sections))
	var lpTotal, lpGzip, lpPoints int
	err = livepoint.Create(p, design, livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}},
		func(lp *livepoint.LivePoint) error {
			blob, bd := livepoint.Encode(lp)
			for i, size := range []int{bd.Header + bd.Arch, bd.TLB, bd.Bpred, bd.L1I, bd.L1D, bd.L2, bd.Mem, bd.Text} {
				sums[i] += size
			}
			lpTotal += len(blob)
			lpGzip += gzipCompressLen(blob)
			lpPoints++
			return nil
		})
	if err != nil {
		return nil, err
	}

	aw, err := awCheckpoints(p, design)
	if err != nil {
		return nil, err
	}
	var awTotal, awGzip int
	for _, blob := range aw {
		awTotal += len(blob)
		awGzip += gzipCompressLen(blob)
	}

	kb := func(bytes int) Cell { return num("%.1f", float64(bytes)/1024) }
	t := &Table{
		Title:   fmt.Sprintf("Figure 7 — breakdown of a typical live-point (%s, uncompressed, avg of %d points)", bench, lpPoints),
		Columns: []string{"section", "KB", "gzip KB"},
	}
	for i, label := range sections {
		t.Rows = append(t.Rows, Row{label, []Cell{kb(sums[i] / lpPoints), text("")}})
	}
	t.Rows = append(t.Rows,
		Row{"live-point total", []Cell{kb(lpTotal / lpPoints), kb(lpGzip / lpPoints)}},
		Row{"AW-MRRL checkpoint", []Cell{kb(awTotal / len(aw)), kb(awGzip / len(aw))}},
		// A conventional (Simics/SimpleScalar EIO) checkpoint stores the
		// benchmark's whole memory footprint.
		Row{"conventional checkpoint (footprint)", []Cell{kb(int(p.FootprintBytes())), text("")}},
	)
	t.Headlines = []Headline{
		{"KB/point", float64(lpTotal/lpPoints) / 1024, ""},
		{"gzKB/point", float64(lpGzip/lpPoints) / 1024, ""},
	}
	return t, nil
}

// --- Figure 8: size/time versus maximum cache --------------------------------

// figure8 sweeps the maximum stored cache (1–16 MB L2 with matching
// predictor growth) on syn.mcf and measures per-checkpoint compressed size
// and processing time for live-points versus AW-MRRL checkpoints. Sizes are
// gzip of the point alone, no container (a library file adds ≈ 20 B/point
// of index); times are load plus simulate.
func (c *Context) figure8() (*Table, error) {
	const bench = "syn.mcf"
	p, err := c.Program(bench)
	if err != nil {
		return nil, err
	}
	const points = 6
	baseCfg := uarch.Config8Way()
	design, err := c.LibraryDesign(bench, baseCfg, 0)
	if err != nil {
		return nil, err
	}
	design.Positions = spreadPositions(design.Positions, points)

	// AW checkpoints are microarchitecture-independent: one set.
	awBlobs, err := awCheckpoints(p, design)
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

	t := &Table{
		Title:   fmt.Sprintf("Figure 8 — compressed checkpoint size and processing time vs max cache (%s)", bench),
		Columns: []string{"max config", "LP KB", "AW KB", "LP ms", "AW ms"},
	}
	var lastLP, lastMillis float64
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
		lastLP, lastMillis = float64(lpBytes/n)/1024, lpMillis/float64(n)
		t.Rows = append(t.Rows, Row{fmt.Sprintf("%2dMB L2 / %5dT", l2mb, cfg.BP.TableSize), []Cell{
			num("%.1f", lastLP), num("%.1f", float64(awBytes)/1024), num("%.1f", lastMillis), num("%.1f", awMillis),
		}})
	}
	t.Headlines = []Headline{
		{"KB/point@16MB", lastLP, ""},
		{"AW/LP-time", awMillis / math.Max(lastMillis, 1e-9), ""},
	}
	return t, nil
}

// awCheckpoints encodes AW-MRRL (architectural-only) checkpoints of p over
// design. The MRRL analysis runs on design itself, so on a thinned design
// warming periods extend across the full gaps between its windows instead
// of being capped by a dense library's.
func awCheckpoints(p *prog.Program, design sampling.Design) ([][]byte, error) {
	an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
	if err != nil {
		return nil, err
	}
	var blobs [][]byte
	err = livepoint.Create(p, design, livepoint.CreateOpts{NoMicroarch: true, FuncWarmLens: an.WarmLens},
		func(lp *livepoint.LivePoint) error {
			blob, _ := livepoint.Encode(lp)
			blobs = append(blobs, blob)
			return nil
		})
	return blobs, err
}
