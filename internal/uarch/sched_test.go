package uarch

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
)

func (s posSet) has(p uint64) bool { return s[p>>6]&(1<<(p&63)) != 0 }

// checkSets recomputes, by the full head-to-tail scan the scheduler used to
// make every cycle, what the ready, in-flight and store sets, the pending
// counts and the consumer links must be, and reports the first difference
// from what the core holds.
func checkSets(c *Core) error {
	if n := c.tailSeq - c.headSeq; n > uint64(c.cfg.RUUSize) {
		return fmt.Errorf("occupancy %d exceeds RUUSize %d", n, c.cfg.RUUSize)
	}
	var ready, inflight, stores, links, lsq int
	for s := c.headSeq; s != c.tailSeq; s++ {
		e, p := c.slot(s), s&c.mask
		if e.seq != s {
			return fmt.Errorf("slot of seq %d holds seq %d", s, e.seq)
		}
		if e.completed && !e.issued {
			return fmt.Errorf("seq %d completed without issuing", s)
		}
		// An entry waits on the producers it named at dispatch that are
		// still in the window and incomplete.
		pending := 0
		for i := 0; i < int(e.nDep); i++ {
			d := e.dep[i]
			if d >= s {
				return fmt.Errorf("seq %d depends on younger seq %d", s, d)
			}
			if d >= c.headSeq && !c.slot(d).completed {
				pending++
				links++
			}
		}
		if int(e.pending) != pending {
			return fmt.Errorf("seq %d: pending %d, scan finds %d incomplete producers", s, e.pending, pending)
		}
		for _, m := range []struct {
			name string
			set  posSet
			want bool
			n    *int
		}{
			{"ready", c.ready, !e.issued && pending == 0, &ready},
			{"inflight", c.inflight, e.issued && !e.completed, &inflight},
			{"stores", c.stores, e.isStore, &stores},
		} {
			if m.set.has(p) != m.want {
				return fmt.Errorf("seq %d: in %s set %v, scan says %v", s, m.name, m.set.has(p), m.want)
			}
			if m.want {
				*m.n++
			}
		}
		if e.isLoad || e.isStore {
			lsq++
		}
		if e.completed && e.consumers != 0 {
			return fmt.Errorf("seq %d completed with consumers still linked", s)
		}
		// The list names live, younger entries that wait on this one,
		// youngest first.
		last := c.tailSeq
		for l := e.consumers; l != 0; l = c.ruu[l.pos()].next[l.slot()] {
			y := &c.ruu[l.pos()]
			if y.seq <= s || y.seq >= c.tailSeq || y.seq&c.mask != l.pos() {
				return fmt.Errorf("seq %d links a consumer at position %d holding seq %d, outside (%d, %d)", s, l.pos(), y.seq, s, c.tailSeq)
			}
			if l.slot() >= y.nDep || y.dep[l.slot()] != s {
				return fmt.Errorf("seq %d links seq %d dep %d, which does not name it", s, y.seq, l.slot())
			}
			if y.seq > last {
				return fmt.Errorf("seq %d: consumer list not youngest first at seq %d", s, y.seq)
			}
			last = y.seq
			links--
		}
	}
	if links != 0 {
		return fmt.Errorf("%d waiting dependences have no consumer link", links)
	}
	if lsq != c.lsqCount {
		return fmt.Errorf("lsqCount %d, scan finds %d", c.lsqCount, lsq)
	}
	// Nothing outside the window is in a set.
	for _, m := range []struct {
		name string
		set  posSet
		want int
	}{{"ready", c.ready, ready}, {"inflight", c.inflight, inflight}, {"stores", c.stores, stores}} {
		got := 0
		for _, w := range m.set {
			got += bits.OnesCount64(w)
		}
		if got != m.want {
			return fmt.Errorf("%s set has %d members, the window accounts for %d", m.name, got, m.want)
		}
	}
	return nil
}

// linkCounts returns the length of every in-window entry's consumer list.
func linkCounts(c *Core) map[uint64]int {
	n := map[uint64]int{}
	for s := c.headSeq; s != c.tailSeq; s++ {
		for l := c.slot(s).consumers; l != 0; l = c.ruu[l.pos()].next[l.slot()] {
			n[s]++
		}
	}
	return n
}

// runChecked runs the core to halt the way Run does, checking the
// scheduler's invariants after every cycle, and returns how many
// recoveries unlinked squashed consumers from a producer that survived.
func runChecked(t *testing.T, c *Core) (purges int) {
	t.Helper()
	const target = 1 << 40
	for !c.halted {
		before, recoveries := linkCounts(c), c.Stat.Recoveries
		if !c.step(target) {
			c.skipToNextEvent()
		}
		if err := checkSets(c); err != nil {
			t.Fatalf("cycle %d: %v", c.cycle, err)
		}
		if c.Stat.Recoveries != recoveries {
			// Between two cycles only a squash shortens the list of an
			// entry that is still in the window and incomplete.
			after := linkCounts(c)
			for s := c.headSeq; s != c.tailSeq; s++ {
				if !c.slot(s).completed && after[s] < before[s] {
					purges++
					break
				}
			}
		}
		if c.cycle > 1<<24 {
			t.Fatal("program did not halt")
		}
	}
	c.Stat.Cycles = c.cycle
	return purges
}

// randomProgram returns a terminating loop whose body mixes single-cycle,
// multiply and divide operations, loads and stores over a handful of
// aliasing words plus loads of cold pages, and forward branches that are
// always, never, or data-dependently taken.
func randomProgram(rng *rand.Rand) []isa.Inst {
	const (
		rCount = 1
		rBase  = 2
		rFirst = 3
		nRegs  = 8
	)
	reg := func() uint8 { return uint8(rFirst + rng.Intn(nRegs)) }
	text := []isa.Inst{
		{Op: isa.OpLui, Rd: rCount, Imm: int64(4 + rng.Intn(8))},
		{Op: isa.OpLui, Rd: rBase, Imm: 0x100000},
	}
	for r := uint8(rFirst); r < rFirst+nRegs; r++ {
		text = append(text, isa.Inst{Op: isa.OpLui, Rd: r, Imm: rng.Int63n(1 << 20)})
	}
	top, body := len(text), 12+rng.Intn(36)
	end := top + body // the loop-counter decrement
	for len(text) < end {
		var in isa.Inst
		switch k := rng.Intn(20); {
		case k < 6:
			ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpOr, isa.OpSlt}
			in = isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg()}
		case k < 8:
			in = isa.Inst{Op: isa.OpAddI, Rd: reg(), Rs1: reg(), Imm: rng.Int63n(64) - 32}
		case k < 10:
			in = isa.Inst{Op: isa.OpMul, Rd: reg(), Rs1: reg(), Rs2: reg()}
		case k < 11:
			in = isa.Inst{Op: isa.OpDiv, Rd: reg(), Rs1: reg(), Rs2: reg()}
		case k < 14:
			in = isa.Inst{Op: isa.OpLoad, Rd: reg(), Rs1: rBase, Imm: int64(rng.Intn(4)) * 8}
		case k < 15:
			in = isa.Inst{Op: isa.OpLoad, Rd: reg(), Rs1: rBase, Imm: int64(1+rng.Intn(64)) * 8192}
		case k < 17:
			in = isa.Inst{Op: isa.OpStore, Rs1: rBase, Rs2: reg(), Imm: int64(rng.Intn(4)) * 8}
		default:
			target := int64(min(len(text)+1+rng.Intn(5), end))
			switch rng.Intn(4) {
			case 0: // always taken
				in = isa.Inst{Op: isa.OpBeq, Rs1: isa.RegZero, Rs2: isa.RegZero, Imm: target}
			case 1: // never taken
				in = isa.Inst{Op: isa.OpBne, Rs1: isa.RegZero, Rs2: isa.RegZero, Imm: target}
			default: // follows the sign of changing data
				in = isa.Inst{Op: isa.OpBltz, Rs1: reg(), Imm: target}
			}
		}
		text = append(text, in)
	}
	return append(text,
		isa.Inst{Op: isa.OpAddI, Rd: rCount, Rs1: rCount, Imm: -1},
		isa.Inst{Op: isa.OpBne, Rs1: rCount, Rs2: isa.RegZero, Imm: int64(top)},
		isa.Inst{Op: isa.OpHalt})
}

// checkAgainstFunctional compares the halted core's committed registers
// with a functional run of the same text.
func checkAgainstFunctional(t *testing.T, c *Core, text []isa.Inst) {
	t.Helper()
	ref := functional.New(sliceText(text), mem.New())
	if _, err := ref.RunToHalt(1 << 24); err != nil {
		t.Fatal(err)
	}
	if c.CommittedState().Regs != ref.Regs {
		t.Fatal("core committed different registers than functional execution")
	}
}

// TestSchedulerInvariants holds the event-driven scheduler to the
// full-scan definition of its sets, cycle by cycle, over seeded random
// programs at a window that is always full (3), one that is not a power of
// two (96) and the baseline (128).
func TestSchedulerInvariants(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for _, ruu := range []int{3, 96, 128} {
		cfg := Config8Way()
		cfg.RUUSize, cfg.LSQSize = ruu, (ruu+1)/2
		t.Run(fmt.Sprint("ruu", ruu), func(t *testing.T) {
			purges, recoveries := 0, uint64(0)
			for seed := 0; seed < seeds; seed++ {
				text := randomProgram(rand.New(rand.NewSource(int64(seed))))
				c := newMicroCore(text, cfg)
				purges += runChecked(t, c)
				recoveries += c.Stat.Recoveries
				checkAgainstFunctional(t, c, text)
				if t.Failed() {
					t.Fatalf("seed %d", seed)
				}
			}
			if recoveries == 0 || (ruu > 3 && purges == 0) {
				t.Fatalf("%d recoveries, %d of them unlinking squashed consumers: the programs do not exercise the squash path", recoveries, purges)
			}
			t.Logf("%d programs, %d recoveries, %d unlinked squashed consumers from a surviving producer", seeds, recoveries, purges)
		})
	}
}

// TestSquashUnlinksConsumersBeforeReuse squashes wrong-path consumers that
// are linked to a producer older than the mispredicted branch and still in
// flight, then keeps dispatching until the ring has wrapped over the
// squashed slots several times. A link left behind would wake, or walk
// through, whatever is dispatched into those slots next.
func TestSquashUnlinksConsumersBeforeReuse(t *testing.T) {
	const (
		rCount, rAddr, rVal, rSum, rLimit = 1, 2, 3, 4, 5
		iters                             = 40
	)
	text := []isa.Inst{
		{Op: isa.OpLui, Rd: rCount, Imm: 0},
		{Op: isa.OpLui, Rd: rAddr, Imm: 0x4000000},
		{Op: isa.OpLui, Rd: rLimit, Imm: iters},
	}
	top := int64(len(text))
	text = append(text,
		// A cold page every iteration: the load is in flight for hundreds
		// of cycles, long after the branches below resolve.
		isa.Inst{Op: isa.OpAddI, Rd: rAddr, Rs1: rAddr, Imm: 8192},
		isa.Inst{Op: isa.OpLoad, Rd: rVal, Rs1: rAddr},
		isa.Inst{Op: isa.OpAdd, Rd: rSum, Rs1: rSum, Rs2: rVal},
		isa.Inst{Op: isa.OpAddI, Rd: rCount, Rs1: rCount, Imm: 1},
	)
	// Taken only on the last iteration, so predicted not taken by then: the
	// consumers of the load after it are fetched down the wrong path.
	exit := len(text)
	text = append(text, isa.Inst{Op: isa.OpBeq, Rs1: rCount, Rs2: rLimit, Imm: -1})
	for i := 0; i < 6; i++ {
		text = append(text, isa.Inst{Op: isa.OpAdd, Rd: uint8(10 + i), Rs1: rVal, Rs2: rVal})
	}
	text = append(text, isa.Inst{Op: isa.OpJmp, Imm: top})
	text[exit].Imm = int64(len(text))
	// Enough work after the squash to lap the ring.
	for i := 0; i < 600; i++ {
		text = append(text, isa.Inst{Op: isa.OpAdd, Rd: uint8(20 + i%8), Rs1: rVal, Rs2: uint8(20 + (i+1)%8)})
	}
	text = append(text, isa.Inst{Op: isa.OpHalt})

	for _, ruu := range []int{24, 96, 128} {
		cfg := Config8Way()
		cfg.RUUSize = ruu
		c := newMicroCore(text, cfg)
		if purges := runChecked(t, c); purges == 0 {
			t.Errorf("RUUSize %d: no recovery unlinked a squashed consumer from a surviving producer", ruu)
		}
		if laps := c.tailSeq / (c.mask + 1); laps < 4 {
			t.Errorf("RUUSize %d: the ring wrapped only %d times", ruu, laps)
		}
		checkAgainstFunctional(t, c, text)
	}
}

// TestCoreResetMatchesNewCore checks a core reset onto a program behaves
// as a new one does, whatever it simulated before: a larger window, a
// different machine, a program abandoned mid-flight.
func TestCoreResetMatchesNewCore(t *testing.T) {
	text := randomProgram(rand.New(rand.NewSource(7)))
	other := randomProgram(rand.New(rand.NewSource(8)))
	small := Config8Way()
	small.RUUSize, small.LSQSize = 24, 12

	reused := newMicroCore(other, Config16Way())
	reused.Run(150) // left with a window full of in-flight work
	for _, cfg := range []Config{Config8Way(), small, Config16Way()} {
		fresh := newMicroCore(text, cfg)
		fresh.Run(1 << 30)

		scratch := newMicroCore(text, cfg) // for its hierarchy and predictor
		reused.Reset(cfg, sliceText(text), mem.New(), functional.State{}, scratch.hier, scratch.bp)
		runChecked(t, reused)
		if reused.Stat != fresh.Stat || reused.CommittedState() != fresh.CommittedState() {
			t.Fatalf("%s: reset core\n %+v\nnew core\n %+v", cfg.Name, reused.Stat, fresh.Stat)
		}
	}
}
