package prog

import "fmt"

// The synthetic suite. Each entry is tuned along the axes that drive the
// paper's results:
//
//   - footprint vs cache size → cold-start sensitivity and warming need;
//   - branch predictability → predictor warming sensitivity;
//   - kernel phase mixing → per-unit CPI variance (CV), which sets the
//     sample size and therefore live-point runtime (Table 2 spread);
//   - benchmark length → functional-warming cost (SMARTS runtime).
//
// Names intentionally echo the SPEC CPU2000 programs whose behaviour each
// entry imitates; the "syn." prefix marks them as synthetic stand-ins.

const (
	kb = 1 << 10
	mb = 1 << 20
)

// Suite returns the specs of the full synthetic benchmark suite, in a
// stable order.
func Suite() []BenchSpec {
	return []BenchSpec{
		{
			// Branchy integer code over a multi-megabyte working set with
			// distinct phases: the classic hard case for samplers.
			Name: "syn.gcc", Seed: 1001, BaseLen: 26_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KBranchy, Footprint: 512 * kb, Pred: 0.80, Work: 4000},
					{Kind: KCompute, Work: 3000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KBranchy, Footprint: 2 * mb, Pred: 0.72, Work: 5000},
					{Kind: KScatter, Footprint: 1 * mb, Work: 2500},
				}},
				{Kernels: []KernelSpec{
					{Kind: KCompute, Work: 4000},
					{Kind: KBranchy, Footprint: 256 * kb, Pred: 0.88, Work: 3000},
				}},
			},
		},
		{
			// High-ILP integer compression loop, small working set.
			Name: "syn.gzip", Seed: 1002, BaseLen: 20_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KCompute, Work: 5000},
					{Kind: KBranchy, Footprint: 128 * kb, Pred: 0.90, Work: 3000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KStream, Footprint: 512 * kb, Work: 4000},
					{Kind: KCompute, Work: 4000},
				}},
			},
		},
		{
			// Dependent pointer chasing far beyond L2: the memory-bound
			// extreme, highest CPI and among the highest CV.
			Name: "syn.mcf", Seed: 1003, BaseLen: 18_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KChase, Footprint: 8 * mb, Work: 5000},
					{Kind: KCompute, Work: 1500},
				}},
				{Kernels: []KernelSpec{
					{Kind: KChase, Footprint: 8 * mb, Work: 6000},
				}},
			},
		},
		{
			// Long pointer-heavy benchmark with mixed phases: the paper's
			// slowest complete-simulation case.
			Name: "syn.parser", Seed: 1004, BaseLen: 44_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KChase, Footprint: 2 * mb, Work: 4000},
					{Kind: KBranchy, Footprint: 512 * kb, Pred: 0.78, Work: 4000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KChase, Footprint: 4 * mb, Work: 5000},
					{Kind: KCompute, Work: 2000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KBranchy, Footprint: 1 * mb, Pred: 0.75, Work: 5000},
				}},
			},
		},
		{
			// Short, call-heavy, cache-resident: the paper's fastest
			// benchmark under every technique.
			Name: "syn.perlbmk", Seed: 1005, BaseLen: 9_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KCalls, Work: 4000},
					{Kind: KBranchy, Footprint: 64 * kb, Pred: 0.86, Work: 3000},
				}},
			},
		},
		{
			// Call-heavy FP renderer, very homogeneous: tiny sample sizes.
			Name: "syn.eon", Seed: 1006, BaseLen: 14_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KCalls, Work: 3500},
					{Kind: KFPMix, Footprint: 256 * kb, Work: 3500},
				}},
			},
		},
		{
			// Block-sorting compressor: streaming plus compute with a
			// working set around the L2 boundary.
			Name: "syn.bzip2", Seed: 1007, BaseLen: 24_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KStream, Footprint: 1 * mb, Work: 4000},
					{Kind: KCompute, Work: 4000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KScatter, Footprint: 2 * mb, Work: 3000},
					{Kind: KCompute, Work: 3000},
				}},
			},
		},
		{
			// Place-and-route scatter workload with strong phase contrast:
			// high CV, the slowest live-point case after syn.ammp.
			Name: "syn.vpr", Seed: 1008, BaseLen: 22_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KScatter, Footprint: 4 * mb, Work: 5000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KCompute, Work: 5000},
					{Kind: KBranchy, Footprint: 128 * kb, Pred: 0.84, Work: 2500},
				}},
				{Kernels: []KernelSpec{
					{Kind: KScatter, Footprint: 4 * mb, Work: 4000},
					{Kind: KChase, Footprint: 1 * mb, Work: 2000},
				}},
			},
		},
		{
			// Standard-cell placement: scatter plus chase in a mid-size set.
			Name: "syn.twolf", Seed: 1009, BaseLen: 20_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KScatter, Footprint: 512 * kb, Work: 4000},
					{Kind: KChase, Footprint: 512 * kb, Work: 3000},
				}},
			},
		},
		{
			// Chess search: compute and branchy, cache resident.
			Name: "syn.crafty", Seed: 1010, BaseLen: 18_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KCompute, Work: 4500},
					{Kind: KBranchy, Footprint: 256 * kb, Pred: 0.82, Work: 4500},
				}},
			},
		},
		{
			// Pure streaming FP: minimal CV, the paper's 1-second
			// live-point benchmark.
			Name: "syn.swim", Seed: 1011, BaseLen: 26_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KStream, Footprint: 4 * mb, Work: 8000},
				}},
			},
		},
		{
			// Multigrid solver: streaming with an FP tail, the longest
			// benchmark in the suite (sim-outorder's worst case).
			Name: "syn.mgrid", Seed: 1012, BaseLen: 52_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KStream, Footprint: 2 * mb, Work: 7000},
					{Kind: KFPMix, Footprint: 512 * kb, Work: 3000},
				}},
			},
		},
		{
			// Neural-net FP kernel over a beyond-L2 matrix.
			Name: "syn.art", Seed: 1013, BaseLen: 16_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KFPMix, Footprint: 4 * mb, Work: 6000},
					{Kind: KStream, Footprint: 2 * mb, Work: 3000},
				}},
			},
		},
		{
			// Molecular dynamics: long-latency FP plus scattered neighbour
			// lists; the paper's slowest live-point benchmark.
			Name: "syn.ammp", Seed: 1014, BaseLen: 30_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KFPMix, Footprint: 2 * mb, Work: 5000},
					{Kind: KScatter, Footprint: 8 * mb, Work: 4000},
				}},
				{Kernels: []KernelSpec{
					{Kind: KChase, Footprint: 4 * mb, Work: 3000},
					{Kind: KFPMix, Footprint: 1 * mb, Work: 3000},
				}},
			},
		},
		{
			// Earthquake FEM: page-stride sweeps, D-TLB bound.
			Name: "syn.equake", Seed: 1015, BaseLen: 20_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KStride, Footprint: 8 * mb, Work: 6000},
					{Kind: KStream, Footprint: 1 * mb, Work: 2500},
				}},
			},
		},
		{
			// 3D rendering: predictable FP and compute, low CV.
			Name: "syn.mesa", Seed: 1016, BaseLen: 16_000_000,
			Phases: []PhaseSpec{
				{Kernels: []KernelSpec{
					{Kind: KFPMix, Footprint: 512 * kb, Work: 4000},
					{Kind: KCompute, Work: 4000},
				}},
			},
		},
	}
}

// SuiteNames returns the benchmark names in suite order.
func SuiteNames() []string {
	specs := Suite()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ByName returns the spec with the given name.
func ByName(name string) (BenchSpec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return BenchSpec{}, fmt.Errorf("prog: unknown benchmark %q", name)
}
