package bpred

import (
	"testing"

	"livepoints/internal/isa"
)

func testCfg() Config {
	return Config{Name: "t", Kind: Combined, TableSize: 256, HistBits: 8,
		BTBSets: 64, BTBAssoc: 2, RASSize: 8}
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Name: "x", TableSize: 100, BTBSets: 64, BTBAssoc: 2, RASSize: 8},               // non-pow2 table
		{Name: "x", TableSize: 256, BTBSets: 63, BTBAssoc: 2, RASSize: 8},               // non-pow2 BTB
		{Name: "x", TableSize: 256, HistBits: 40, BTBSets: 64, BTBAssoc: 2, RASSize: 8}, // hist too long
		{Name: "x", TableSize: 256, BTBSets: 64, BTBAssoc: 2, RASSize: 0},               // no RAS
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

// trainLoop trains the predictor on a biased branch and reports the final
// prediction.
func trainLoop(p *Predictor, pc uint64, taken bool, n int) bool {
	in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
	for i := 0; i < n; i++ {
		p.UpdateWithSpec(pc, in, taken, 0)
	}
	dir, _, _ := p.predictDir(pc)
	return dir
}

func TestBimodalLearnsBias(t *testing.T) {
	for _, kind := range []Kind{Bimodal, GShare, Combined} {
		cfg := testCfg()
		cfg.Kind = kind
		p := New(cfg)
		if got := trainLoop(p, 0x1000, true, 32); !got {
			t.Errorf("%v: did not learn always-taken", kind)
		}
		p.Reset()
		if got := trainLoop(p, 0x1000, false, 32); got {
			t.Errorf("%v: did not learn never-taken", kind)
		}
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	// Alternating T/N branch: gshare with history learns it, bimodal
	// cannot exceed ~50%.
	for _, kind := range []Kind{GShare, Bimodal} {
		cfg := testCfg()
		cfg.Kind = kind
		p := New(cfg)
		in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
		correct := 0
		taken := false
		for i := 0; i < 2000; i++ {
			taken = !taken
			dir, _, _ := p.predictDir(0x2000)
			if dir == taken {
				correct++
			}
			p.UpdateWithSpec(0x2000, in, taken, 0)
		}
		acc := float64(correct) / 2000
		if kind == GShare && acc < 0.95 {
			t.Errorf("gshare alternating accuracy %.2f", acc)
		}
		if kind == Bimodal && acc > 0.75 {
			t.Errorf("bimodal alternating accuracy %.2f suspiciously high", acc)
		}
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := New(testCfg())
	call := isa.Inst{Op: isa.OpCall, Rd: isa.RegLink, Imm: 500}
	ret := isa.Inst{Op: isa.OpRet, Rs1: isa.RegLink}

	// Nested calls at distinct sites; returns must pop in LIFO order.
	sites := []uint64{0x100, 0x200, 0x300}
	for _, pc := range sites {
		taken, _, _ := p.Lookup(pc, call)
		if !taken {
			t.Fatal("call not predicted taken")
		}
	}
	for i := len(sites) - 1; i >= 0; i-- {
		_, target, ok := p.Lookup(0x400+uint64(i), ret)
		if !ok {
			t.Fatal("RAS empty on return")
		}
		if target != sites[i]+isa.InstBytes {
			t.Fatalf("return to %#x, want %#x", target, sites[i]+isa.InstBytes)
		}
	}
}

func TestBTBLearnsIndirectTargets(t *testing.T) {
	p := New(testCfg())
	jr := isa.Inst{Op: isa.OpJr, Rs1: 5}
	if _, _, known := p.Lookup(0x1000, jr); known {
		t.Fatal("cold BTB predicted a target")
	}
	p.Update(0x1000, jr, true, 0xBEEF0)
	_, target, known := p.Lookup(0x1000, jr)
	if !known || target != 0xBEEF0 {
		t.Fatalf("BTB: known=%v target=%#x", known, target)
	}
}

func TestSpecLiteSaveRestore(t *testing.T) {
	p := New(testCfg())
	in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
	for i := 0; i < 10; i++ {
		p.UpdateWithSpec(0x100, in, i%2 == 0, 0)
	}
	saved := p.SaveLite()
	// Corrupt speculative state.
	p.Lookup(0x200, in)
	p.Lookup(0x300, isa.Inst{Op: isa.OpCall, Rd: 63, Imm: 5})
	p.RestoreLite(saved)
	if p.ghr != saved.GHR || p.rasTop != saved.RASTop {
		t.Fatal("RestoreLite did not restore state")
	}
}

func TestApplyOutcome(t *testing.T) {
	p := New(testCfg())
	before := p.ghr
	p.ApplyOutcome(0x100, isa.Inst{Op: isa.OpBne}, true)
	if p.ghr != before<<1|1 {
		t.Fatal("history not shifted by outcome")
	}
	top := p.rasTop
	p.ApplyOutcome(0x200, isa.Inst{Op: isa.OpCall, Rd: 63}, true)
	if p.rasTop == top {
		t.Fatal("call did not push RAS")
	}
	p.ApplyOutcome(0x300, isa.Inst{Op: isa.OpRet, Rs1: 63}, true)
	if p.rasTop != top {
		t.Fatal("return did not pop RAS")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New(testCfg())
	in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
	jr := isa.Inst{Op: isa.OpJr, Rs1: 5}
	for i := 0; i < 500; i++ {
		pc := uint64(0x100 + (i%37)*16)
		p.UpdateWithSpec(pc, in, i%3 == 0, 0)
		if i%7 == 0 {
			p.Update(pc+4, jr, true, uint64(i)*16)
		}
	}
	snap := p.Snapshot()
	q := New(testCfg())
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The restored predictor must predict identically.
	for i := 0; i < 37; i++ {
		pc := uint64(0x100 + i*16)
		d1, b1, g1 := p.predictDir(pc)
		d2, b2, g2 := q.predictDir(pc)
		if d1 != d2 || b1 != b2 || g1 != g2 {
			t.Fatalf("pc %#x: predictions differ after restore", pc)
		}
	}
	if p.ghr != q.ghr {
		t.Fatal("history differs after restore")
	}
	if len(snap) > snapshotBytes(testCfg()) {
		t.Fatalf("snapshot %d bytes exceeds worst-case bound %d", len(snap), snapshotBytes(testCfg()))
	}
}

func TestRestoreRejectsWrongConfig(t *testing.T) {
	p := New(testCfg())
	other := testCfg()
	other.TableSize = 512
	q := New(other)
	if err := q.Restore(p.Snapshot()); err == nil {
		t.Fatal("restore across configs accepted")
	}
	snap := p.Snapshot()
	snap[0] ^= 0xFF // corrupt magic
	r := New(testCfg())
	if err := r.Restore(snap); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestRestrictDropsUntouchedEntries(t *testing.T) {
	p := New(testCfg())
	in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
	// Train two branches.
	for i := 0; i < 50; i++ {
		p.UpdateWithSpec(0x100, in, true, 0)
		p.UpdateWithSpec(0x900, in, true, 0)
	}
	// Restrict to a window containing only the branch at 0x100.
	restricted := p.Restrict([]BranchOutcome{{PC: 0x100, In: in, Taken: true}})
	if d, _, _ := restricted.predictDir(0x100); !d {
		t.Fatal("window branch entry lost by restriction")
	}
	// The untouched branch's bimodal entry must be back at weak.
	if restricted.bimodal[restricted.bimodalIdx(0x900)] != 1 {
		t.Fatal("untouched entry survived restriction")
	}
	// Original must be unmodified.
	if p.bimodal[p.bimodalIdx(0x900)] == 1 {
		t.Fatal("restriction modified the source predictor")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(testCfg())
	in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
	p.UpdateWithSpec(0x100, in, true, 0)
	q := p.Clone()
	q.UpdateWithSpec(0x100, in, true, 0)
	q.UpdateWithSpec(0x100, in, true, 0)
	if p.bimodal[p.bimodalIdx(0x100)] == q.bimodal[q.bimodalIdx(0x100)] {
		t.Fatal("clone shares table storage")
	}
}

func TestStatsCount(t *testing.T) {
	p := New(testCfg())
	in := isa.Inst{Op: isa.OpBne, Rs1: 1, Imm: 100}
	p.Lookup(0x100, in)
	p.Lookup(0x100, in)
	if p.Stat.Lookups != 2 || p.Stat.CondBranches != 2 {
		t.Fatalf("stats %+v", p.Stat)
	}
}

// snapshotBytes returns the worst-case uncompressed snapshot size for a
// config (all BTB entries valid), without building a predictor.
func snapshotBytes(cfg Config) int {
	tables := 0
	switch cfg.Kind {
	case Bimodal, GShare:
		tables = cfg.TableSize
	case Combined:
		tables = 3 * cfg.TableSize
	}
	return 8 + 8 + 8 + cfg.RASSize*8 + tables + 8 + cfg.BTBSets*cfg.BTBAssoc*24
}
