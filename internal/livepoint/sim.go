package livepoint

import (
	"fmt"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// Simulate runs the live-point's detailed window under the given
// configuration and returns the measurement-interval CPI with the core's
// statistics (including the wrong-path unknown-state counters of §5), on
// a throwaway arena. Callers simulating more than one point keep a
// SimArena and call its Simulate instead.
func Simulate(lp *LivePoint, cfg uarch.Config) (warm.WindowResult, error) {
	var a SimArena
	return a.Simulate(lp, cfg)
}

// SimArena holds the reusable per-worker simulation state: a memory
// hierarchy, a branch predictor, a text map, a copy-on-write overlay, a
// functional CPU, and the detailed core. A reused arena produces
// bit-identical results to a fresh one — a structure reset to a
// configuration is indistinguishable from a freshly built one — while
// reusing every backing array across points.
//
// An arena serves one goroutine; runners keep one per worker. The zero
// value is ready to use.
type SimArena struct {
	hier    *cache.Hier
	bp      *bpred.Predictor
	text    *textSource
	overlay *mem.Overlay
	cpu     *functional.CPU
	warmer  warm.Warmer
	core    uarch.Core
}

// Reconstruct builds warmed simulation structures for the target
// configuration from the live-point's checkpointed state, in the arena's
// hierarchy and predictor. Cache and TLB geometries must be
// reconstructible from the stored maxima (§4.3); the branch-predictor
// configuration must be one of the stored snapshots. The returned
// structures are owned by the arena and valid until its next Reconstruct
// or Simulate call.
func (a *SimArena) Reconstruct(lp *LivePoint, cfg uarch.Config) (*cache.Hier, *bpred.Predictor, error) {
	if a.hier == nil {
		a.hier = cache.NewHier(cfg.Hier)
	}
	if err := a.hier.ResetTo(cfg.Hier); err != nil {
		return nil, nil, err
	}
	if a.bp == nil {
		a.bp = bpred.New(cfg.BP)
	}
	if err := a.bp.ResetTo(cfg.BP); err != nil {
		return nil, nil, err
	}
	if len(lp.Caches) == 0 {
		// Architectural-only (AW-MRRL) checkpoints carry no
		// microarchitectural state: cold structures — exactly what ResetTo
		// just produced — warmed functionally after load for lp.FuncWarm
		// instructions.
		return a.hier, a.bp, nil
	}
	install := []struct {
		dst    *cache.Cache
		target cache.Config
	}{
		{a.hier.L1I, cfg.Hier.L1I},
		{a.hier.L1D, cfg.Hier.L1D},
		{a.hier.L2, cfg.Hier.L2},
		{a.hier.ITLB, cfg.Hier.ITLB},
		{a.hier.DTLB, cfg.Hier.DTLB},
	}
	for i, t := range install {
		sr, err := lp.FindCache(t.target.Name)
		if err != nil {
			return nil, nil, err
		}
		if err := sr.ReconstructInto(t.dst, t.target); err != nil {
			return nil, nil, fmt.Errorf("livepoint: %s: %w", t.target.Name, err)
		}
		if lp.Restricted {
			// Restricted live-state dropped everything the correct path
			// does not touch; the paper leaves that state "uninitialized
			// (effectively random)". Materialize it as garbage lines so
			// ways stay occupied but never hit.
			t.dst.FillInvalid(uint64(lp.Position)*31 + uint64(i) + 1)
		}
	}

	ps, err := lp.FindPred(cfg.BP.Name)
	if err != nil {
		return nil, nil, err
	}
	if ps.Cfg != cfg.BP {
		return nil, nil, fmt.Errorf("livepoint: stored predictor %q has different parameters than requested", cfg.BP.Name)
	}
	if err := a.bp.Restore(ps.Data); err != nil {
		return nil, nil, err
	}
	return a.hier, a.bp, nil
}

// Simulate runs the live-point's detailed window under cfg, reusing the
// per-point fixed allocations (text map, overlay, hierarchy, predictor,
// functional CPU, detailed core) across calls. For AW-MRRL checkpoints
// (FuncWarm > 0) the prescribed functional warming runs first against the
// stored live-state, then the detailed window.
func (a *SimArena) Simulate(lp *LivePoint, cfg uarch.Config) (warm.WindowResult, error) {
	if a.text == nil {
		a.text = &textSource{insts: make(map[uint64]isa.Inst, 256)}
	}
	a.text.fill(lp)
	if a.overlay == nil {
		a.overlay = mem.NewOverlay(&lp.Mem)
	} else {
		a.overlay.Rebind(&lp.Mem)
	}

	hier, bp, err := a.Reconstruct(lp, cfg)
	if err != nil {
		return warm.WindowResult{}, err
	}

	arch := functional.State{PC: lp.Arch.PC, Regs: lp.Arch.Regs}
	if lp.FuncWarm > 0 {
		if a.cpu == nil {
			a.cpu = functional.New(a.text, a.overlay)
		}
		a.cpu.Reset(a.text, a.overlay, arch)
		a.warmer = warm.Warmer{H: hier, BP: bp}
		a.cpu.Warm = &a.warmer
		if n, err := a.cpu.Run(lp.FuncWarm); err != nil || n != lp.FuncWarm {
			return warm.WindowResult{}, fmt.Errorf("livepoint: functional warming from checkpoint failed: %v", err)
		}
		arch = a.cpu.State
	}

	a.core.Reset(cfg, a.text, a.overlay, arch, hier, bp)
	return warm.RunWindow(&a.core, lp.WarmLen, lp.UnitLen)
}
