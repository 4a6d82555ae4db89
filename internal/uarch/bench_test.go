package uarch

import (
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/mem"
	"livepoints/internal/prog"
)

// windowWalk runs back-to-back detailed windows along one benchmark on one
// reused core, the way a runner's arena does: each window resets the core
// onto the state the previous one committed, over caches and a predictor
// that stay warm.
type windowWalk struct {
	cfg  Config
	p    *prog.Program
	m    *mem.Memory
	hier *cache.Hier
	bp   *bpred.Predictor
	arch functional.State
	core Core

	insts, cycles uint64
}

func newWindowWalk(b *testing.B, name string) *windowWalk {
	spec, err := prog.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	w := &windowWalk{cfg: Config8Way(), p: prog.Generate(spec, 0.05)}
	w.restart()
	return w
}

func (w *windowWalk) restart() {
	w.m = w.p.NewMemory()
	w.hier = cache.NewHier(w.cfg.Hier)
	w.bp = bpred.New(w.cfg.BP)
	w.arch = functional.State{}
}

// window simulates the next window and reports whether the program has
// more to run.
func (w *windowWalk) window() bool {
	w.core.Reset(w.cfg, w.p, w.m, w.arch, w.hier, w.bp)
	w.insts += w.core.Run(uint64(w.cfg.WindowLen()))
	w.cycles += w.core.Cycle()
	w.arch = w.core.CommittedState()
	return !w.core.Halted()
}

// BenchmarkCoreWindow measures the detailed core alone — no library, no
// decode, no reconstruction — on a compute-bound and a memory-bound
// benchmark, one window per iteration, and fails if a window on a reused
// core allocates.
func BenchmarkCoreWindow(b *testing.B) {
	for _, name := range []string{"syn.gzip", "syn.mcf"} {
		b.Run(name, func(b *testing.B) {
			w := newWindowWalk(b, name)
			// The first windows grow the overlay's buckets and touch the
			// program's zero-filled pages; steady state comes after them.
			for i := 0; i < 8; i++ {
				w.window()
			}
			if allocs := testing.AllocsPerRun(16, func() { w.window() }); allocs != 0 {
				b.Fatalf("a steady-state window allocates %v times", allocs)
			}
			w.insts, w.cycles = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !w.window() {
					b.StopTimer()
					w.restart()
					b.StartTimer()
				}
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(float64(w.insts)/ns*1e6, "sim-kIPS")
			b.ReportMetric(ns/float64(w.cycles), "host-ns/sim-cycle")
		})
	}
}
