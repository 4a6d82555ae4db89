package uarch

import (
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
	"livepoints/internal/prog"
)

// sliceText adapts a raw instruction slice to the text-source interface.
type sliceText []isa.Inst

func (s sliceText) Fetch(pc uint64) (isa.Inst, bool) {
	if pc >= uint64(len(s)) {
		return isa.Inst{}, false
	}
	return s[pc], true
}

// newMicroCore builds a core over a hand-written program with cold
// structures.
func newMicroCore(text []isa.Inst, cfg Config) *Core {
	m := mem.New()
	h := cache.NewHier(cfg.Hier)
	bp := bpred.New(cfg.BP)
	return NewCore(cfg, sliceText(text), m, functional.State{}, h, bp)
}

// TestDependenceChainSlowerThanILP checks the scheduler honours data
// dependences: a serial chain of N adds must take ~N cycles while N
// independent adds finish in ~N/width.
func TestDependenceChainSlowerThanILP(t *testing.T) {
	cfg := Config8Way()
	const n = 64
	// Both bodies loop 200 times so cold instruction fetch amortizes and
	// the schedule, not the front end, dominates.
	mkLoop := func(body func(i int) isa.Inst) []isa.Inst {
		var text []isa.Inst
		text = append(text, isa.Inst{Op: isa.OpLui, Rd: 60, Imm: 200})
		top := int64(len(text))
		for i := 0; i < n; i++ {
			text = append(text, body(i))
		}
		text = append(text, isa.Inst{Op: isa.OpAddI, Rd: 60, Rs1: 60, Imm: -1})
		text = append(text, isa.Inst{Op: isa.OpBne, Rs1: 60, Rs2: 0, Imm: top})
		text = append(text, isa.Inst{Op: isa.OpHalt})
		return text
	}
	serial := mkLoop(func(int) isa.Inst {
		return isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1}
	})
	parallel := mkLoop(func(i int) isa.Inst {
		r := uint8(1 + i%32)
		return isa.Inst{Op: isa.OpAddI, Rd: r, Rs1: r, Imm: 1}
	})

	cs := newMicroCore(serial, cfg)
	cs.Run(1 << 22)
	cp := newMicroCore(parallel, cfg)
	cp.Run(1 << 22)

	if cs.Stat.Cycles < 200*n {
		t.Fatalf("serial chain took %d cycles for %d dependent adds — dependences ignored", cs.Stat.Cycles, 200*n)
	}
	if cp.Stat.Cycles*2 >= cs.Stat.Cycles {
		t.Fatalf("independent adds (%d cycles) not meaningfully faster than chain (%d cycles)",
			cp.Stat.Cycles, cs.Stat.Cycles)
	}
}

// TestDivUnitStallsAreVisible checks unpipelined long-latency units
// back-pressure the schedule.
func TestDivUnitStallsAreVisible(t *testing.T) {
	cfg := Config8Way()
	const n = 16
	divs := make([]isa.Inst, 0, n+2)
	divs = append(divs, isa.Inst{Op: isa.OpLui, Rd: 1, Imm: 7})
	for i := 0; i < n; i++ {
		// Independent divides: throughput-bound by the unpipelined units.
		divs = append(divs, isa.Inst{Op: isa.OpDiv, Rd: uint8(2 + i%8), Rs1: 1, Rs2: 1})
	}
	divs = append(divs, isa.Inst{Op: isa.OpHalt})
	c := newMicroCore(divs, cfg)
	c.Run(1 << 20)
	// Two IMUL/IDIV units with issue interval 19: n divides need at least
	// n/2 * 19 cycles.
	if want := uint64(n / 2 * 19); c.Stat.Cycles < want {
		t.Fatalf("%d independent divides in %d cycles, want >= %d", n, c.Stat.Cycles, want)
	}
}

// TestStoreLoadForwarding checks a load of a just-stored address completes
// quickly (forwarded) and architecturally correctly.
func TestStoreLoadForwarding(t *testing.T) {
	cfg := Config8Way()
	text := []isa.Inst{
		{Op: isa.OpLui, Rd: 1, Imm: 0x10000},
		{Op: isa.OpLui, Rd: 2, Imm: 1234},
		{Op: isa.OpStore, Rs1: 1, Rs2: 2, Imm: 0},
		{Op: isa.OpLoad, Rd: 3, Rs1: 1, Imm: 0},
		{Op: isa.OpHalt},
	}
	c := newMicroCore(text, cfg)
	c.Run(1 << 20)
	if got := c.CommittedState().Regs[3]; got != 1234 {
		t.Fatalf("forwarded load got %d", got)
	}

	// Control: the same program loading a different cold address pays a
	// full TLB+memory round trip that forwarding avoids.
	control := make([]isa.Inst, len(text))
	copy(control, text)
	control[3] = isa.Inst{Op: isa.OpLoad, Rd: 3, Rs1: 1, Imm: 1 << 20}
	cc := newMicroCore(control, cfg)
	cc.Run(1 << 20)
	if c.Stat.Cycles+100 > cc.Stat.Cycles {
		t.Fatalf("forwarding (%d cycles) not meaningfully faster than cold load (%d cycles)",
			c.Stat.Cycles, cc.Stat.Cycles)
	}
}

// TestRUUBackpressure checks that a long-latency load eventually stalls
// dispatch through RUU occupancy rather than deadlocking.
func TestRUUBackpressure(t *testing.T) {
	cfg := Config8Way()
	cfg.RUUSize = 16
	cfg.LSQSize = 8
	text := []isa.Inst{
		{Op: isa.OpLui, Rd: 1, Imm: 0x400000},
		{Op: isa.OpLoad, Rd: 2, Rs1: 1, Imm: 0}, // cold: TLB+L2+mem miss
	}
	// Dependent chain long enough to fill the shrunken RUU.
	for i := 0; i < 64; i++ {
		text = append(text, isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 3, Rs2: 2})
	}
	text = append(text, isa.Inst{Op: isa.OpHalt})
	c := newMicroCore(text, cfg)
	committed := c.Run(1 << 20)
	if !c.Halted() {
		t.Fatal("program did not finish")
	}
	if committed != uint64(len(text)) {
		t.Fatalf("committed %d of %d", committed, len(text))
	}
}

// TestICacheMissesSlowFetch checks a program whose text spans many lines
// pays instruction-fetch misses on first traversal.
func TestICacheMissesSlowFetch(t *testing.T) {
	cfg := Config8Way()
	// Straight-line code long enough to exceed one L1I way but run once:
	// every line is a cold miss.
	var text []isa.Inst
	for i := 0; i < 4096; i++ {
		text = append(text, isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1})
	}
	text = append(text, isa.Inst{Op: isa.OpHalt})
	c := newMicroCore(text, cfg)
	c.Run(1 << 22)
	if c.hier.L1I.Stat.Misses == 0 {
		t.Fatal("no instruction-cache misses on cold straight-line code")
	}
	// CPI must reflect the cold fetch stream: well above the width bound.
	if cpi := c.Stat.CPI(); cpi < 0.5 {
		t.Fatalf("cold-text CPI %.3f suspiciously low", cpi)
	}
}

// TestMispredictPenaltyVisible compares a perfectly-biased branch loop with
// an LCG-random branch loop: the random one must be slower per instruction.
func TestMispredictPenaltyVisible(t *testing.T) {
	cfg := Config8Way()
	biased := loopProgram(true)
	random := loopProgram(false)

	cb := newMicroCore(biased, cfg)
	cb.Run(1 << 22)
	cr := newMicroCore(random, cfg)
	cr.Run(1 << 22)

	if cr.Stat.Recoveries <= cb.Stat.Recoveries {
		t.Fatalf("random branches recovered %d times, biased %d", cr.Stat.Recoveries, cb.Stat.Recoveries)
	}
	if cr.Stat.CPI() <= cb.Stat.CPI() {
		t.Fatalf("random-branch CPI %.3f not above biased %.3f", cr.Stat.CPI(), cb.Stat.CPI())
	}
}

// loopProgram builds a 2000-iteration loop with a data-dependent hammock;
// biased branches take one side always, random ones follow an LCG bit.
func loopProgram(biased bool) []isa.Inst {
	var a []isa.Inst
	emit := func(in isa.Inst) int { a = append(a, in); return len(a) - 1 }
	emit(isa.Inst{Op: isa.OpLui, Rd: 1, Imm: 2000})  // counter
	emit(isa.Inst{Op: isa.OpLui, Rd: 2, Imm: 12345}) // lcg state
	top := int64(len(a))
	emit(isa.Inst{Op: isa.OpLui, Rd: 5, Imm: 6364136223846793005})
	emit(isa.Inst{Op: isa.OpMul, Rd: 2, Rs1: 2, Rs2: 5})
	emit(isa.Inst{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 1442695040888963407 & 0x7fffffff})
	if biased {
		emit(isa.Inst{Op: isa.OpLui, Rd: 3, Imm: 0}) // always falls through
	} else {
		emit(isa.Inst{Op: isa.OpShrI, Rd: 3, Rs1: 2, Imm: 40})
		emit(isa.Inst{Op: isa.OpAndI, Rd: 3, Rs1: 3, Imm: 1})
	}
	br := emit(isa.Inst{Op: isa.OpBne, Rs1: 3, Rs2: 0, Imm: -1})
	emit(isa.Inst{Op: isa.OpAddI, Rd: 4, Rs1: 4, Imm: 1})
	join := emit(isa.Inst{Op: isa.OpAddI, Rd: 4, Rs1: 4, Imm: 2})
	a[br].Imm = int64(join)
	emit(isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: -1})
	emit(isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: top})
	emit(isa.Inst{Op: isa.OpHalt})
	return a
}

// runStepping is Run without the skip: every cycle is simulated, stalled or
// not.
func runStepping(c *Core, n uint64) {
	target := c.Stat.Committed + n
	for c.Stat.Committed < target && !c.halted {
		c.step(target)
	}
	c.Stat.Cycles = c.cycle
}

// TestEventSkipEquivalence checks that skipping stalled cycles changes
// nothing: a core stepped through every cycle and a core driven through
// Run, which jumps to the next event whenever no stage made progress,
// report the same statistics and committed state — on serial loads to
// fresh pages (maximal stalls) and on a window of the memory-bound suite
// benchmark.
func TestEventSkipEquivalence(t *testing.T) {
	cfg := Config8Way()
	chase := []isa.Inst{
		{Op: isa.OpLui, Rd: 1, Imm: 0x2000000},
	}
	for i := 0; i < 32; i++ {
		chase = append(chase, isa.Inst{Op: isa.OpLoad, Rd: 2, Rs1: 1, Imm: int64(i) * 8192})
		chase = append(chase, isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 3, Rs2: 2})
	}
	chase = append(chase, isa.Inst{Op: isa.OpHalt})
	mcf, err := prog.ByName("syn.mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Generate(mcf, 0.01)

	for _, tc := range []struct {
		name string
		mk   func() *Core
		n    uint64
		text []isa.Inst // set when n runs the program to its halt
	}{
		{"pointer-chase", func() *Core { return newMicroCore(chase, cfg) }, 1 << 22, chase},
		{"syn.mcf", func() *Core { return newTestCoreOver(p, cfg) }, 20_000, nil},
	} {
		stepped, skipped := tc.mk(), tc.mk()
		runStepping(stepped, tc.n)
		skipped.Run(tc.n)
		if stepped.Stat != skipped.Stat {
			t.Fatalf("%s: skipping changed the statistics:\n stepped %+v\n skipped %+v", tc.name, stepped.Stat, skipped.Stat)
		}
		if stepped.CommittedState() != skipped.CommittedState() {
			t.Fatalf("%s: skipping changed the committed state", tc.name)
		}
		// The comparison is vacuous unless cycles were in fact skipped.
		if stepped.Stat.Cycles < 2*stepped.Stat.Committed {
			t.Fatalf("%s: only %d cycles for %d instructions: nothing stalled", tc.name, stepped.Stat.Cycles, stepped.Stat.Committed)
		}
		if tc.text == nil {
			continue
		}
		ref := functional.New(sliceText(tc.text), mem.New())
		if _, err := ref.RunToHalt(1 << 20); err != nil {
			t.Fatal(err)
		}
		if skipped.CommittedState().Regs != ref.Regs {
			t.Fatalf("%s: stall-heavy program committed wrong state", tc.name)
		}
	}
}
