// Package bpred implements the branch prediction structures whose
// long-history state the paper's warming strategies must manage: a bimodal
// predictor, a gshare-style two-level predictor, the SimpleScalar-style
// combined predictor with a meta chooser, a branch target buffer, and a
// return address stack.
//
// Predictor state is snapshot-able to a flat byte image; live-points store
// one snapshot per predictor configuration of interest (the paper's
// "storing multiple configurations" approach, §4.3).
package bpred

import (
	"encoding/binary"
	"fmt"

	"livepoints/internal/isa"
)

// Kind selects the directional predictor organization.
type Kind uint8

// Predictor kinds.
const (
	Bimodal Kind = iota
	GShare
	Combined
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Bimodal:
		return "bimodal"
	case GShare:
		return "gshare"
	case Combined:
		return "combined"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Config describes a predictor instance.
type Config struct {
	Name      string // identifies the configuration inside live-points
	Kind      Kind
	TableSize int // entries per directional table (power of two)
	HistBits  int // global history bits for GShare/Combined
	BTBSets   int // power of two
	BTBAssoc  int
	RASSize   int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("bpred: config needs a name")
	}
	if c.TableSize <= 0 || c.TableSize&(c.TableSize-1) != 0 {
		return fmt.Errorf("bpred %s: table size %d not a power of two", c.Name, c.TableSize)
	}
	if c.HistBits < 0 || c.HistBits > 30 {
		return fmt.Errorf("bpred %s: history bits %d out of range", c.Name, c.HistBits)
	}
	if c.BTBSets <= 0 || c.BTBSets&(c.BTBSets-1) != 0 || c.BTBAssoc <= 0 {
		return fmt.Errorf("bpred %s: bad BTB geometry %d x %d", c.Name, c.BTBSets, c.BTBAssoc)
	}
	if c.RASSize <= 0 {
		return fmt.Errorf("bpred %s: RAS size must be positive", c.Name)
	}
	return nil
}

// btbEntry is one branch-target-buffer way.
type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
	last   uint64
}

// Stats counts prediction events.
type Stats struct {
	Lookups        uint64
	CondBranches   uint64
	DirMispredicts uint64
	TgtMispredicts uint64
}

// Predictor is an instantiated branch predictor.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit saturating counters
	pht     []uint8 // gshare pattern history table
	meta    []uint8 // combined-predictor chooser
	ghr     uint64
	btb     []btbEntry // BTBSets * BTBAssoc, set-major
	btbClk  uint64
	ras     []uint64
	rasTop  int
	Stat    Stats
}

// New builds a predictor with all counters weakly not-taken and an empty
// BTB and RAS.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg: cfg,
		ras: make([]uint64, cfg.RASSize),
		btb: make([]btbEntry, cfg.BTBSets*cfg.BTBAssoc),
	}
	switch cfg.Kind {
	case Bimodal:
		p.bimodal = weak(cfg.TableSize)
	case GShare:
		p.pht = weak(cfg.TableSize)
	case Combined:
		p.bimodal = weak(cfg.TableSize)
		p.pht = weak(cfg.TableSize)
		p.meta = weak(cfg.TableSize)
	}
	return p
}

func weak(n int) []uint8 {
	t := make([]uint8, n)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return t
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 4) & uint64(p.cfg.TableSize-1))
}

func (p *Predictor) gshareIdx(pc uint64) int {
	h := p.ghr & ((1 << uint(p.cfg.HistBits)) - 1)
	return int(((pc >> 4) ^ h) & uint64(p.cfg.TableSize-1))
}

// predictDir returns the direction prediction and the component
// predictions (needed for meta-table training).
func (p *Predictor) predictDir(pc uint64) (pred, bimPred, gsPred bool) {
	switch p.cfg.Kind {
	case Bimodal:
		b := p.bimodal[p.bimodalIdx(pc)] >= 2
		return b, b, b
	case GShare:
		g := p.pht[p.gshareIdx(pc)] >= 2
		return g, g, g
	default: // Combined
		bimPred = p.bimodal[p.bimodalIdx(pc)] >= 2
		gsPred = p.pht[p.gshareIdx(pc)] >= 2
		if p.meta[p.bimodalIdx(pc)] >= 2 {
			return gsPred, bimPred, gsPred
		}
		return bimPred, bimPred, gsPred
	}
}

// Lookup produces the fetch-time prediction for the branch at byte address
// pc. For conditional branches it returns the predicted direction; for
// unconditional transfers taken is always true. predTarget is the
// predicted target byte address and targetKnown reports whether the
// predictor has any target for a taken prediction (from the instruction's
// immediate for direct branches, the RAS for returns, the BTB for other
// indirect jumps).
//
// Lookup speculatively updates the global history and the RAS exactly as a
// real fetch engine would.
func (p *Predictor) Lookup(pc uint64, in isa.Inst) (taken bool, predTarget uint64, targetKnown bool) {
	p.Stat.Lookups++
	switch {
	case in.Op == isa.OpCall:
		p.rasPush(pc + isa.InstBytes)
		return true, isa.PCToAddr(uint64(in.Imm)), true
	case in.Op == isa.OpRet:
		t, ok := p.rasPop()
		return true, t, ok
	case in.Op == isa.OpJr:
		t, ok := p.btbLookup(pc)
		return true, t, ok
	case in.Op == isa.OpJmp:
		return true, isa.PCToAddr(uint64(in.Imm)), true
	case in.Op.IsCondBranch():
		p.Stat.CondBranches++
		dir, _, _ := p.predictDir(pc)
		p.ghr = p.ghr<<1 | boolBit(dir)
		return dir, isa.PCToAddr(uint64(in.Imm)), true
	}
	return false, 0, false
}

// Update trains the predictor with the resolved outcome of the branch at
// byte address pc: actual direction and actual target byte address. It is
// called at commit by the detailed core and per-branch by functional
// warming. Functional warming additionally performs the speculative
// bookkeeping, so warming calls UpdateWithSpec instead.
func (p *Predictor) Update(pc uint64, in isa.Inst, taken bool, target uint64) {
	if in.Op.IsCondBranch() {
		_, bimPred, gsPred := p.predictDir(pc)
		switch p.cfg.Kind {
		case Bimodal:
			sat(&p.bimodal[p.bimodalIdx(pc)], taken)
		case GShare:
			sat(&p.pht[p.gshareIdx(pc)], taken)
		default:
			// Train the chooser toward whichever component was right.
			if bimPred != gsPred {
				sat(&p.meta[p.bimodalIdx(pc)], gsPred == taken)
			}
			sat(&p.bimodal[p.bimodalIdx(pc)], taken)
			sat(&p.pht[p.gshareIdx(pc)], taken)
		}
	}
	if in.Op == isa.OpJr && taken {
		p.btbInsert(pc, target)
	}
}

// UpdateWithSpec performs the complete warming update for one executed
// branch: prediction-free history update, counter training, RAS and BTB
// maintenance. This keeps warmed state identical to the state a detailed
// simulation of the same path would produce at commit.
func (p *Predictor) UpdateWithSpec(pc uint64, in isa.Inst, taken bool, target uint64) {
	p.Update(pc, in, taken, target)
	switch {
	case in.Op == isa.OpCall:
		p.rasPush(pc + isa.InstBytes)
	case in.Op == isa.OpRet:
		p.rasPop()
	case in.Op.IsCondBranch():
		p.ghr = p.ghr<<1 | boolBit(taken)
	}
}

func sat(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- RAS ----------------------------------------------------------------

func (p *Predictor) rasPush(retAddr uint64) {
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	p.ras[p.rasTop] = retAddr
}

func (p *Predictor) rasPop() (uint64, bool) {
	v := p.ras[p.rasTop]
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return v, v != 0
}

// --- BTB ----------------------------------------------------------------

func (p *Predictor) btbSet(pc uint64) []btbEntry {
	s := int((pc >> 4) & uint64(p.cfg.BTBSets-1))
	base := s * p.cfg.BTBAssoc
	return p.btb[base : base+p.cfg.BTBAssoc]
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	set := p.btbSet(pc)
	p.btbClk++
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			set[i].last = p.btbClk
			return set[i].target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	set := p.btbSet(pc)
	p.btbClk++
	vi := 0
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			set[i].target = target
			set[i].last = p.btbClk
			return
		}
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].last < set[vi].last {
			vi = i
		}
	}
	set[vi] = btbEntry{pc: pc, target: target, valid: true, last: p.btbClk}
}

// --- Snapshot (checkpointed warming) --------------------------------------

// snapshot layout: magic(8) ghr(8) rasTop(8) ras(n*8) tables, then the
// valid BTB entries sparsely as count(8) + (index, pc, target) triples —
// most BTB slots are empty, so dense encoding would waste the bulk of the
// live-point's predictor section.
const snapMagic = uint64(0x4250524544_0002) // "BPRED" v2

// Snapshot serializes the complete predictor state to a flat byte image.
func (p *Predictor) Snapshot() []byte {
	valid := 0
	for i := range p.btb {
		if p.btb[i].valid {
			valid++
		}
	}
	size := 8 + 8 + 8 + len(p.ras)*8 + len(p.bimodal) + len(p.pht) + len(p.meta) + 8 + valid*24
	buf := make([]byte, 0, size)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	put(snapMagic)
	put(p.ghr)
	put(uint64(p.rasTop))
	for _, v := range p.ras {
		put(v)
	}
	buf = append(buf, p.bimodal...)
	buf = append(buf, p.pht...)
	buf = append(buf, p.meta...)
	put(uint64(valid))
	for i := range p.btb {
		if p.btb[i].valid {
			put(uint64(i))
			put(p.btb[i].pc)
			put(p.btb[i].target)
		}
	}
	return buf
}

// Restore loads a snapshot produced by a predictor with the same Config.
func (p *Predictor) Restore(buf []byte) error {
	fixed := 8 + 8 + 8 + len(p.ras)*8 + len(p.bimodal) + len(p.pht) + len(p.meta) + 8
	if len(buf) < fixed || (len(buf)-fixed)%24 != 0 {
		return fmt.Errorf("bpred %s: snapshot size %d not valid for this config", p.cfg.Name, len(buf))
	}
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(buf[:8])
		buf = buf[8:]
		return v
	}
	if m := get(); m != snapMagic {
		return fmt.Errorf("bpred %s: bad snapshot magic %#x", p.cfg.Name, m)
	}
	p.ghr = get()
	p.rasTop = int(get())
	if p.rasTop < 0 || p.rasTop >= len(p.ras) {
		return fmt.Errorf("bpred %s: snapshot RAS top %d out of range", p.cfg.Name, p.rasTop)
	}
	for i := range p.ras {
		p.ras[i] = get()
	}
	copy(p.bimodal, buf[:len(p.bimodal)])
	buf = buf[len(p.bimodal):]
	copy(p.pht, buf[:len(p.pht)])
	buf = buf[len(p.pht):]
	copy(p.meta, buf[:len(p.meta)])
	buf = buf[len(p.meta):]
	for i := range p.btb {
		p.btb[i] = btbEntry{}
	}
	valid := int(get())
	if len(buf) != valid*24 {
		return fmt.Errorf("bpred %s: snapshot BTB section %d bytes for %d entries", p.cfg.Name, len(buf), valid)
	}
	for k := 0; k < valid; k++ {
		i := int(get())
		if i < 0 || i >= len(p.btb) {
			return fmt.Errorf("bpred %s: snapshot BTB index %d out of range", p.cfg.Name, i)
		}
		p.btb[i].pc = get()
		p.btb[i].target = get()
		p.btb[i].valid = true
		p.btb[i].last = uint64(k) // recency order is not preserved; harmless
	}
	return nil
}

// Clone deep-copies the predictor including statistics.
func (p *Predictor) Clone() *Predictor {
	n := New(p.cfg)
	n.ghr = p.ghr
	n.rasTop = p.rasTop
	copy(n.ras, p.ras)
	copy(n.bimodal, p.bimodal)
	copy(n.pht, p.pht)
	copy(n.meta, p.meta)
	copy(n.btb, p.btb)
	n.btbClk = p.btbClk
	n.Stat = p.Stat
	return n
}

// Reset restores the power-on state.
func (p *Predictor) Reset() {
	p.ghr = 0
	p.rasTop = 0
	for i := range p.ras {
		p.ras[i] = 0
	}
	for _, t := range [][]uint8{p.bimodal, p.pht, p.meta} {
		for i := range t {
			t[i] = 1
		}
	}
	for i := range p.btb {
		p.btb[i] = btbEntry{}
	}
	p.btbClk = 0
	p.Stat = Stats{}
}

// ResetTo reconfigures the predictor to cfg and resets it to power-on
// state, reusing table, RAS, and BTB backing arrays whenever capacities
// allow. A predictor reset to a configuration is indistinguishable from
// one freshly built with New.
func (p *Predictor) ResetTo(cfg Config) error {
	if cfg != p.cfg {
		if err := cfg.Validate(); err != nil {
			return err
		}
		p.cfg = cfg
		p.ras = resizeU64(p.ras, cfg.RASSize)
		p.btb = resizeBTB(p.btb, cfg.BTBSets*cfg.BTBAssoc)
		switch cfg.Kind {
		case Bimodal:
			p.bimodal = resizeU8(p.bimodal, cfg.TableSize)
			p.pht = p.pht[:0]
			p.meta = p.meta[:0]
		case GShare:
			p.bimodal = p.bimodal[:0]
			p.pht = resizeU8(p.pht, cfg.TableSize)
			p.meta = p.meta[:0]
		default: // Combined
			p.bimodal = resizeU8(p.bimodal, cfg.TableSize)
			p.pht = resizeU8(p.pht, cfg.TableSize)
			p.meta = resizeU8(p.meta, cfg.TableSize)
		}
	}
	p.Reset() // re-initializes every (possibly stale) slot
	return nil
}

func resizeU8(s []uint8, n int) []uint8 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint8, n)
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

func resizeBTB(s []btbEntry, n int) []btbEntry {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]btbEntry, n)
}

// SnapshotBytes returns the worst-case uncompressed snapshot size for a
// config (all BTB entries valid), without building a predictor. Used for
// storage accounting.
func SnapshotBytes(cfg Config) int {
	tables := 0
	switch cfg.Kind {
	case Bimodal, GShare:
		tables = cfg.TableSize
	case Combined:
		tables = 3 * cfg.TableSize
	}
	return 8 + 8 + 8 + cfg.RASSize*8 + tables + 8 + cfg.BTBSets*cfg.BTBAssoc*24
}
