package uarch

import (
	"strconv"
	"strings"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/prog"
)

// newTestCore builds a core over a freshly generated program with cold
// structures.
func newTestCore(t *testing.T, name string, scale float64, cfg Config) (*Core, *prog.Program) {
	t.Helper()
	spec, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Generate(spec, scale)
	return newTestCoreOver(p, cfg), p
}

// newTestCoreOver builds a core at the start of p with cold structures.
func newTestCoreOver(p *prog.Program, cfg Config) *Core {
	return NewCore(cfg, p, p.NewMemory(), functional.State{}, cache.NewHier(cfg.Hier), bpred.New(cfg.BP))
}

// TestHandoffInvariant runs the detailed core for a fixed commit count and
// checks the committed architectural state matches pure functional
// simulation instruction-for-instruction. This is the core correctness
// property the whole sampling methodology rests on.
func TestHandoffInvariant(t *testing.T) {
	for _, name := range []string{"syn.gzip", "syn.mcf", "syn.gcc", "syn.perlbmk", "syn.swim"} {
		name := name
		t.Run(name, func(t *testing.T) {
			const n = 20_000
			core, p := newTestCore(t, name, 0.01, Config8Way())
			got := core.Run(n)
			if got != n {
				t.Fatalf("core committed %d, want %d", got, n)
			}

			ref := functional.New(p, p.NewMemory())
			if _, err := ref.Run(n); err != nil {
				t.Fatalf("functional run: %v", err)
			}

			cs := core.CommittedState()
			if cs.PC != ref.PC {
				t.Fatalf("PC mismatch: core %d, functional %d", cs.PC, ref.PC)
			}
			if cs.Regs != ref.Regs {
				for r := 0; r < 64; r++ {
					if cs.Regs[r] != ref.Regs[r] {
						t.Errorf("r%d mismatch: core %#x, functional %#x", r, cs.Regs[r], ref.Regs[r])
					}
				}
				t.Fatal("register state mismatch")
			}
			if core.Stat.CorrectPathUnknownLoads != 0 || core.Stat.CorrectPathUnknownFetches != 0 {
				t.Fatalf("correct-path unknown events: loads=%d fetches=%d",
					core.Stat.CorrectPathUnknownLoads, core.Stat.CorrectPathUnknownFetches)
			}
		})
	}
}

// TestRunToHaltMatchesFunctional runs a whole tiny benchmark to completion
// in both simulators and compares final state and instruction counts.
func TestRunToHaltMatchesFunctional(t *testing.T) {
	core, p := newTestCore(t, "syn.gzip", 0.002, Config8Way())
	committed := core.Run(1 << 30) // runs to halt
	if !core.Halted() {
		t.Fatal("core did not reach halt")
	}

	ref := functional.New(p, p.NewMemory())
	n, err := ref.RunToHalt(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	// The halt itself commits but does not count as a retired instruction
	// in the functional counter.
	if committed != n+1 {
		t.Fatalf("committed %d, functional executed %d (want committed = n+1)", committed, n)
	}
	if core.CommittedState().Regs != ref.Regs {
		t.Fatal("final register state mismatch")
	}
}

// TestDeterminism checks cycle-exact reproducibility.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		core, _ := newTestCore(t, "syn.gcc", 0.005, Config8Way())
		core.Run(30_000)
		return core.Stat.Cycles, core.Stat.Recoveries
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("non-deterministic: cycles %d vs %d, recoveries %d vs %d", c1, c2, r1, r2)
	}
}

// TestCPISanity checks CPI lands in a plausible range for contrasting
// workloads and that the memory-bound workload has distinctly higher CPI.
func TestCPISanity(t *testing.T) {
	cpi := map[string]float64{}
	for _, name := range []string{"syn.gzip", "syn.mcf"} {
		core, _ := newTestCore(t, name, 0.02, Config8Way())
		core.Run(100_000)
		c := core.Stat.CPI()
		if c < 1.0/8 || c > 100 {
			t.Fatalf("%s: implausible CPI %.3f", name, c)
		}
		cpi[name] = c
		t.Logf("%s: CPI %.3f, recoveries %d, wrong-path %d", name, c, core.Stat.Recoveries, core.Stat.WrongPathDisp)
	}
	if cpi["syn.mcf"] < cpi["syn.gzip"]*1.5 {
		t.Errorf("expected pointer-chasing CPI >> compute CPI; got mcf=%.3f gzip=%.3f",
			cpi["syn.mcf"], cpi["syn.gzip"])
	}
}

// TestWrongPathActivity checks the core actually fetches and dispatches
// down wrong paths on a branchy workload (required for the live-state
// wrong-path experiments).
func TestWrongPathActivity(t *testing.T) {
	core, _ := newTestCore(t, "syn.gcc", 0.01, Config8Way())
	core.Run(50_000)
	if core.Stat.Recoveries == 0 {
		t.Fatal("no branch mispredictions on a branchy workload")
	}
	if core.Stat.WrongPathDisp == 0 {
		t.Fatal("no wrong-path instructions dispatched despite mispredictions")
	}
	t.Logf("recoveries=%d wrongPath=%d dispatched=%d",
		core.Stat.Recoveries, core.Stat.WrongPathDisp, core.Stat.Dispatched)
}

// Test16WayRunsAndIsFaster checks the 16-way configuration commits the same
// state and achieves lower CPI on an ILP-rich workload.
func Test16WayRunsAndIsFaster(t *testing.T) {
	const n = 50_000
	c8, _ := newTestCore(t, "syn.gzip", 0.01, Config8Way())
	c8.Run(n)
	c16, p := newTestCore(t, "syn.gzip", 0.01, Config16Way())
	c16.Run(n)

	if c8.CommittedState().Regs != c16.CommittedState().Regs {
		t.Fatal("8-way and 16-way committed different architectural state")
	}
	ref := functional.New(p, p.NewMemory())
	if _, err := ref.Run(n); err != nil {
		t.Fatal(err)
	}
	if c16.CommittedState().PC != ref.PC {
		t.Fatal("16-way PC diverges from functional")
	}
	t.Logf("CPI 8-way %.3f vs 16-way %.3f", c8.Stat.CPI(), c16.Stat.CPI())
	if c16.Stat.CPI() >= c8.Stat.CPI() {
		t.Errorf("16-way should outperform 8-way on ILP-rich code: %.3f vs %.3f",
			c16.Stat.CPI(), c8.Stat.CPI())
	}
}

// TestConfigsValidate checks the Table 1 configurations and the pinned
// variants are well-formed, and that a configuration the core could only
// crash or deadlock on is refused with the field named.
func TestConfigsValidate(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if cfg.WindowLen() != cfg.DetailedWarm+MeasureLen {
			t.Errorf("%s: window length arithmetic broken", cfg.Name)
		}
	}
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"RUUSize", func(c *Config) { c.RUUSize = 0 }},
		{"RUUSize", func(c *Config) { c.RUUSize = maxRUUSize + 1 }},
		{"RUUSize", func(c *Config) { c.RUUSize = 1 << 40 }},
		{"LSQSize", func(c *Config) { c.LSQSize = 0 }},
		{"IFQSize", func(c *Config) { c.IFQSize = -1 }},
		{"FetchWidth", func(c *Config) { c.FetchWidth = 0 }},
		{"DecodeWidth", func(c *Config) { c.DecodeWidth = 0 }},
		{"IssueWidth", func(c *Config) { c.IssueWidth = 0 }},
		{"CommitWidth", func(c *Config) { c.CommitWidth = 0 }},
		{"IntALU", func(c *Config) { c.IntALU = 0 }},
		{"IntMul", func(c *Config) { c.IntMul = 0 }},
		{"FPALU", func(c *Config) { c.FPALU = 0 }},
		{"FPMul", func(c *Config) { c.FPMul = 0 }},
		{"MemPorts", func(c *Config) { c.MemPorts = 0 }},
		{"PredsPerCycle", func(c *Config) { c.PredsPerCycle = 0 }},
		{"BranchPenalty", func(c *Config) { c.BranchPenalty = -1 }},
		{"cache l2", func(c *Config) { c.Hier.L2.SizeBytes = 3 << 10 }},
		{"bpred", func(c *Config) { c.BP.TableSize = 1000 }},
	} {
		cfg := Config8Way()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad %s: error %v does not name it", tc.field, err)
		}
	}
	// A name is one of the two Table 1 machines or an error, never a default.
	for name, want := range map[string]string{"8way": "8-way", "16way": "16-way"} {
		if cfg, err := ConfigByName(name); err != nil || cfg.Name != want {
			t.Errorf("ConfigByName(%q): %q, %v", name, cfg.Name, err)
		}
	}
	for _, name := range []string{"", "bogus", "8-way", "16WAY"} {
		if _, err := ConfigByName(name); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("ConfigByName(%q): error %v does not name it", name, err)
		}
	}
	// The largest window allowed fits a consumer link.
	widest := Config8Way()
	widest.RUUSize = maxRUUSize
	if err := widest.Validate(); err != nil {
		t.Errorf("RUUSize at the bound refused: %v", err)
	}
	for slot := uint8(0); slot < 3; slot++ {
		if l := mkLink(maxRUUSize-1, slot); l == 0 || l.pos() != maxRUUSize-1 || l.slot() != slot {
			t.Errorf("link to position %d slot %d decodes as %d, %d", maxRUUSize-1, slot, l.pos(), l.slot())
		}
	}
}
