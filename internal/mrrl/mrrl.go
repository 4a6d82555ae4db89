// Package mrrl implements Memory Reference Reuse Latency analysis (Haskins
// & Skadron) and the adaptive-warming simulation engine built on it — the
// paper's §4.2 alternative to checkpointed warming.
//
// The offline analysis pass observes the complete reference stream once and
// computes, for every detailed window of a sample design, the functional
// warming length sufficient to cover a target fraction (typically 99.9 %)
// of the reuse distances observed inside the window. The simulation engine
// then warms each window for only that long, either stitching cache state
// between consecutive windows (program order, dependent windows — low bias)
// or starting each warming period cold (independent windows — the paper
// measures much higher bias, Table 3 footnote).
package mrrl

import (
	"fmt"
	"sort"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/mem"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// DefaultReuseProb is the reuse-coverage threshold recommended by the MRRL
// authors and used in the paper's evaluation.
const DefaultReuseProb = 0.999

// DefaultGranularity is the block granularity at which reuse is measured.
// Finer granularity is conservative for coarser structures (covering a
// 128-byte block reuse covers its page's reuse), so the L2 line size is
// used.
const DefaultGranularity = 128

// Analysis is the outcome of the offline MRRL pass for one benchmark and
// sample design.
type Analysis struct {
	ReuseProb   float64
	Granularity int64
	// WarmLens[j] is the functional-warming length (instructions) for
	// design unit j, already clamped to the available gap.
	WarmLens []uint64
	// TotalRefs is the number of references observed in windows.
	TotalRefs uint64
}

// Analyze performs the offline MRRL pass: a single functional simulation of
// the benchmark observing every instruction fetch and data reference, and a
// per-window reuse-distance histogram. The reported warming length for a
// window is the reuseProb quantile of the window's reuse distances, capped
// at the distance back to the previous window (stitching covers anything
// older) and at the window start.
func Analyze(p *prog.Program, design sampling.Design, reuseProb float64, granularity int64) (*Analysis, error) {
	if reuseProb <= 0 || reuseProb > 1 {
		return nil, fmt.Errorf("mrrl: reuse probability %v out of (0,1]", reuseProb)
	}
	if granularity <= 0 {
		granularity = DefaultGranularity
	}
	an := &Analysis{
		ReuseProb:   reuseProb,
		Granularity: granularity,
		WarmLens:    make([]uint64, design.Units()),
	}

	cpu := functional.New(p, p.NewMemory())
	last := make(map[uint64]uint64, 1<<16) // block -> instruction index of last access

	curWin := 0
	var reuses []uint64
	const neverSeen = ^uint64(0)

	record := func(addr uint64) {
		i := cpu.InstRet
		b := addr / uint64(granularity)
		prev, seen := last[b]
		last[b] = i
		if curWin >= design.Units() {
			return
		}
		start, end := design.WindowStart(curWin), design.Positions[curWin]+design.UnitLen
		if i < start || i >= end {
			return
		}
		an.TotalRefs++
		if !seen {
			reuses = append(reuses, neverSeen)
			return
		}
		reuses = append(reuses, i-prev)
	}

	w := &warm.Warmer{
		OnMem:   func(addr uint64, write bool) { record(addr) },
		OnFetch: func(addr uint64) { record(addr) },
	}
	cpu.Warm = w

	finishWindow := func(j int) {
		start := design.WindowStart(j)
		// Cap: stitching carries state from the previous window's end (or
		// the program start for the first window).
		capAt := start
		if j > 0 {
			capAt = start - (design.Positions[j-1] + design.UnitLen)
		}
		an.WarmLens[j] = quantile(reuses, reuseProb, capAt)
		reuses = reuses[:0]
	}

	for !cpu.Halted {
		if curWin < design.Units() {
			end := design.Positions[curWin] + design.UnitLen
			if cpu.InstRet >= end {
				finishWindow(curWin)
				curWin++
				continue
			}
		}
		if err := cpu.Step(); err != nil {
			return nil, fmt.Errorf("mrrl: analysis pass: %w", err)
		}
	}
	if curWin < design.Units() {
		return nil, fmt.Errorf("mrrl: benchmark halted before window %d of %d", curWin, design.Units())
	}
	return an, nil
}

// quantile returns the q-quantile of reuse distances, treating never-seen
// blocks as requiring the full cap, and clamping the result to cap.
func quantile(reuses []uint64, q float64, capAt uint64) uint64 {
	if len(reuses) == 0 {
		return 0
	}
	s := make([]uint64, len(reuses))
	copy(s, reuses)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	w := s[idx]
	if w > capAt {
		w = capAt
	}
	return w
}

// AWOpts tunes the adaptive-warming engine.
type AWOpts struct {
	// Stitched carries cache and predictor state across windows in
	// program order (the accurate but dependent mode). When false, every
	// warming period starts from cold structures, making windows
	// independent at the cost of much higher bias.
	Stitched bool
	// CheckHandoff verifies the architectural handoff after each window.
	CheckHandoff bool
	// MaxUnits, when positive, limits the number of windows simulated.
	MaxUnits int
}

// AWResult is the outcome of an adaptive-warming sampled simulation.
type AWResult struct {
	UnitCPIs []float64
	Est      sampling.Estimate

	WarmInsts     uint64 // functional-warming instructions executed
	DetailedInsts uint64
	FFInsts       uint64 // fast-forward instructions (checkpoint-jump equivalent)

	WarmTime     time.Duration
	DetailedTime time.Duration
	FFTime       time.Duration
}

// RunAW performs adaptive-warming simulation sampling: for each window,
// fast-forward (architecturally only) to the window's warming start, warm
// functionally for the analysis-prescribed length, then run the detailed
// window. Fast-forward time is accounted separately because a
// checkpoint-based implementation (the one whose storage Figure 7/8
// measures) replaces it with a constant-time load.
func RunAW(cfg uarch.Config, p *prog.Program, design sampling.Design, an *Analysis, opts AWOpts) (*AWResult, error) {
	if len(an.WarmLens) < design.Units() {
		return nil, fmt.Errorf("mrrl: analysis has %d windows, design has %d", len(an.WarmLens), design.Units())
	}
	m := p.NewMemory()
	hier := cache.NewHier(cfg.Hier)
	bp := bpred.New(cfg.BP)
	warmer := &warm.Warmer{H: hier, BP: bp}
	cpu := functional.New(p, m)
	cpu.Warm = nil // warming only inside prescribed periods

	res := &AWResult{}
	prevEnd := uint64(0)
	for j := 0; j < design.Units(); j++ {
		if opts.MaxUnits > 0 && j >= opts.MaxUnits {
			break
		}
		start := design.WindowStart(j)
		warmStart := start - min64(an.WarmLens[j], start)
		if warmStart < prevEnd {
			warmStart = prevEnd
		}
		if cpu.InstRet > warmStart {
			return nil, fmt.Errorf("mrrl: window %d warming overlaps previous window", j)
		}

		t0 := time.Now()
		ff := warmStart - cpu.InstRet
		if n, err := cpu.Run(ff); err != nil || n != ff {
			return nil, fmt.Errorf("mrrl: fast-forward to window %d failed: %v", j, err)
		}
		res.FFInsts += ff
		res.FFTime += time.Since(t0)

		if !opts.Stitched {
			hier.Reset()
			bp.Reset()
		}

		t0 = time.Now()
		wlen := start - warmStart
		cpu.Warm = warmer
		if n, err := cpu.Run(wlen); err != nil || n != wlen {
			return nil, fmt.Errorf("mrrl: warming for window %d failed: %v", j, err)
		}
		cpu.Warm = nil
		res.WarmInsts += wlen
		res.WarmTime += time.Since(t0)

		t0 = time.Now()
		overlay := mem.NewOverlay(m)
		core := uarch.NewCore(cfg, p, overlay, cpu.State, hier, bp)
		wr, err := warm.RunWindow(core, design.WarmLen, design.UnitLen)
		if err != nil {
			return nil, fmt.Errorf("mrrl: window %d: %w", j, err)
		}
		res.UnitCPIs = append(res.UnitCPIs, wr.UnitCPI)
		res.Est.Add(wr.UnitCPI)
		res.DetailedInsts += design.WindowLen()
		res.DetailedTime += time.Since(t0)

		winLen := design.WindowLen()
		if n, err := cpu.Run(winLen); err != nil || n != winLen {
			return nil, fmt.Errorf("mrrl: advance over window %d failed: %v", j, err)
		}
		prevEnd = cpu.InstRet

		if opts.CheckHandoff {
			cs := core.CommittedState()
			if cs.PC != cpu.PC || cs.Regs != cpu.Regs {
				return nil, fmt.Errorf("mrrl: handoff invariant violated at window %d", j)
			}
		}
	}
	return res, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
