// Package livepoint implements the paper's primary contribution: live-points
// — checkpoints that replace functional warming in simulation sampling.
//
// A live-point stores, for one pre-selected detailed window:
//
//   - checkpointed warming state (§4.3): the functionally-warmed
//     long-history structures — cache and TLB tag state as Cache Set
//     Records captured at a user-chosen maximum configuration, and one
//     snapshot per branch-predictor configuration of interest;
//   - live-state (§5): the minimal architectural state the window's
//     correct path will touch — the register file plus only the memory
//     words the window reads before writing, and the instruction text
//     around the executed path (which also covers most wrong-path fetch).
//
// Wrong-path execution is approximated, not stored: branch-predictor
// outcomes identify the wrong-path instruction sequence, and the stored
// cache tags give wrong-path load latency; wrong-path operand values are
// unavailable and substituted with zero (§5). The detailed core counts
// these events so experiments can verify they stay rare.
package livepoint

import (
	"errors"
	"fmt"
	"slices"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/csr"
	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
)

// ArchState is the checkpointed architectural register state.
type ArchState struct {
	PC   uint64
	Regs [isa.NumRegs]uint64
}

// TextRange is a contiguous run of stored instruction text.
type TextRange struct {
	StartPC uint64
	Insts   []isa.Inst
}

// PredSnapshot is one stored branch-predictor configuration.
type PredSnapshot struct {
	Cfg  bpred.Config
	Data []byte
}

// LivePoint is one decoded live-point.
type LivePoint struct {
	Benchmark string
	Index     int    // unit index within the sample design
	Position  uint64 // instruction position where measurement starts
	WarmLen   uint64 // detailed-warming instructions before measurement
	UnitLen   uint64 // measurement instructions

	// FuncWarm is nonzero only for architectural-only (AW-MRRL)
	// checkpoints: the functional-warming instructions to execute after
	// loading, before the detailed window begins.
	FuncWarm uint64

	Restricted bool

	Arch ArchState
	// Mem holds the live-state words (word address -> first-read value) as
	// an address-sorted table.
	Mem  MemTable
	Text []TextRange

	Caches []*csr.SetRecord // L1I, L1D, L2 order (max configuration)
	TLBs   []*csr.SetRecord // ITLB, DTLB order
	Preds  []PredSnapshot
}

// FindPred returns the stored snapshot for the named predictor
// configuration.
func (lp *LivePoint) FindPred(name string) (PredSnapshot, error) {
	for _, ps := range lp.Preds {
		if ps.Cfg.Name == name {
			return ps, nil
		}
	}
	return PredSnapshot{}, fmt.Errorf("livepoint: no stored predictor %q (have %d snapshots)", name, len(lp.Preds))
}

// FindCache returns the stored record for the named cache.
func (lp *LivePoint) FindCache(name string) (*csr.SetRecord, error) {
	for _, sr := range lp.Caches {
		if sr.Cfg.Name == name {
			return sr, nil
		}
	}
	for _, sr := range lp.TLBs {
		if sr.Cfg.Name == name {
			return sr, nil
		}
	}
	return nil, fmt.Errorf("livepoint: no stored cache %q", name)
}

// textSource adapts the sparse stored text to the simulator interface.
type textSource struct {
	insts map[uint64]isa.Inst
}

// Fetch implements functional.TextSource. ok=false for uncaptured
// addresses (reachable only via wrong paths).
func (ts *textSource) Fetch(pc uint64) (isa.Inst, bool) {
	in, ok := ts.insts[pc]
	return in, ok
}

// fill repopulates the text map from a live-point's stored ranges,
// reusing the map's buckets across points.
func (ts *textSource) fill(lp *LivePoint) {
	clear(ts.insts)
	for _, r := range lp.Text {
		for i, in := range r.Insts {
			ts.insts[r.StartPC+uint64(i)] = in
		}
	}
}

// CreateOpts configures live-point creation.
type CreateOpts struct {
	// MaxHier fixes the cache and TLB bounds the library supports
	// (§4.3): any simulated configuration with the same line sizes, no
	// more sets and no higher associativity per structure can be
	// reconstructed.
	MaxHier cache.HierConfig
	// Preds lists the branch-predictor configurations to warm and store
	// ("storing multiple configurations", §4.3).
	Preds []bpred.Config
	// Restricted drops all state not touched by the window's correct
	// path — the Figure 5 ablation.
	Restricted bool
	// TextPad stores this many instructions of text either side of each
	// executed instruction so that near-path wrong-path fetch finds its
	// text (default 32).
	TextPad int
	// NoMicroarch creates architectural-only checkpoints with a
	// per-window functional-warming prescription: the AW-MRRL checkpoint
	// of Figures 7 and 8. FuncWarmLens must then be set.
	NoMicroarch bool
	// FuncWarmLens gives the per-window functional-warming lengths for
	// NoMicroarch checkpoints (from the MRRL analysis).
	FuncWarmLens []uint64
}

func (o *CreateOpts) textPad() int {
	if o.TextPad <= 0 {
		return 32
	}
	return o.TextPad
}

// runAhead extends the scouted capture this many instructions past the
// window end: the out-of-order pipeline dispatches (and reads state for)
// instructions beyond the final committed one, bounded by the RUU and
// fetch-queue depth.
const runAhead = 512

// Create runs the creation pass over a benchmark: one full-warming
// functional simulation of the whole program (the one-time O(benchmark)
// cost the library amortizes, §4.3) that captures a live-point at every
// window of the sample design. Each captured point is handed to emit in
// program order; writers typically shuffle afterwards (§6.1).
//
// Creation is a two-stage pipeline. The calling goroutine warms to each
// window, scouts it and copies the warmed cache, TLB and predictor state;
// a second goroutine sorts the copied set records and calls emit. So emit
// runs off the caller's goroutine, overlapping the warming of the next
// window, but it is never called concurrently with itself, always sees
// points in program order, and is never called after Create returns. The
// first error from emit or from a capture stops the warming pass and is
// returned; emit is not called again. A panic in emit is re-raised on the
// caller's goroutine.
func Create(p *prog.Program, design sampling.Design, opts CreateOpts, emit func(*LivePoint) error) error {
	if opts.NoMicroarch && len(opts.FuncWarmLens) < design.Units() {
		return fmt.Errorf("livepoint: NoMicroarch creation needs %d warming lengths, have %d",
			design.Units(), len(opts.FuncWarmLens))
	}
	if err := opts.MaxHier.Validate(); err != nil && !opts.NoMicroarch {
		return fmt.Errorf("livepoint: max hierarchy: %w", err)
	}

	points := make(chan *LivePoint, 1)
	stop := make(chan struct{})
	done := make(chan emitOutcome, 1)
	go emitPoints(points, stop, done, emit)
	err := warmAndCapture(p, design, opts, func(lp *LivePoint) bool {
		select {
		case points <- lp:
			return true
		case <-stop:
			return false
		}
	})
	close(points)
	out := <-done
	switch {
	case out.aborted && out.panicked != nil:
		panic(out.panicked)
	case out.aborted:
		return errors.New("livepoint: emit exited its goroutine without returning")
	case out.err != nil:
		return out.err // an earlier point than any capture error
	}
	return err
}

// emitOutcome is how Create's second stage ended: err is emit's error;
// aborted means emit neither returned nor failed — it panicked (with
// panicked as the value) or exited its goroutine.
type emitOutcome struct {
	err      error
	aborted  bool
	panicked any
}

// emitPoints is Create's second stage. It sorts each point's set records
// and hands the point to emit, in the order the points arrive. At emit's
// first error, or if emit does not return, it closes stop so the warming
// pass ends at its next window. Its outcome goes to done exactly once.
func emitPoints(points <-chan *LivePoint, stop chan<- struct{}, done chan<- emitOutcome, emit func(*LivePoint) error) {
	out := emitOutcome{aborted: true}
	defer func() {
		if out.aborted {
			out.panicked = recover()
		}
		if out.aborted || out.err != nil {
			close(stop)
		}
		done <- out
	}()
	for lp := range points {
		for _, sr := range lp.Caches {
			sr.Sort()
		}
		for _, sr := range lp.TLBs {
			sr.Sort()
		}
		if err := emit(lp); err != nil {
			out = emitOutcome{err: err}
			return
		}
	}
	out = emitOutcome{}
}

// warmAndCapture is Create's first stage: the warming pass. It captures
// each window's point with unsorted set records and passes it to send,
// stopping when send returns false.
func warmAndCapture(p *prog.Program, design sampling.Design, opts CreateOpts, send func(*LivePoint) bool) error {
	m := p.NewMemory()
	cpu := functional.New(p, m)

	var hier *cache.Hier
	var preds []*bpred.Predictor
	if !opts.NoMicroarch {
		hier = cache.NewHier(opts.MaxHier)
		for _, pc := range opts.Preds {
			preds = append(preds, bpred.New(pc))
		}
	}
	cpu.Warm = &createWarmer{hier: hier, preds: preds}

	for j := 0; j < design.Units(); j++ {
		start := design.WindowStart(j)
		captureAt := start
		funcWarm := uint64(0)
		if opts.NoMicroarch {
			// The AW checkpoint sits at the start of the functional
			// warming period and must cover warming plus the window.
			funcWarm = opts.FuncWarmLens[j]
			if funcWarm > start {
				funcWarm = start
			}
			captureAt = start - funcWarm
		}
		if cpu.InstRet > captureAt {
			return fmt.Errorf("livepoint: window %d overlaps previous window", j)
		}
		ff := captureAt - cpu.InstRet
		if n, err := cpu.Run(ff); err != nil || n != ff {
			return fmt.Errorf("livepoint: warming pass ended early before window %d: %v", j, err)
		}

		lp, err := capture(p, m, cpu.State, hier, preds, opts, j, design, funcWarm)
		if err != nil {
			return fmt.Errorf("livepoint: window %d: %w", j, err)
		}
		if !send(lp) {
			return nil
		}
	}
	return nil
}

// createWarmer warms the maximum hierarchy and every predictor
// configuration in a single pass.
type createWarmer struct {
	hier  *cache.Hier
	preds []*bpred.Predictor
}

func (w *createWarmer) WarmFetch(addr uint64) {
	if w.hier != nil {
		w.hier.WarmFetch(addr)
	}
}

func (w *createWarmer) WarmMem(addr uint64, write bool) {
	if w.hier != nil {
		w.hier.WarmData(addr, write)
	}
}

func (w *createWarmer) WarmBranch(addr uint64, in isa.Inst, taken bool, target uint64) {
	for _, p := range w.preds {
		p.UpdateWithSpec(addr, in, taken, target)
	}
}

// capture scouts the window ahead with a forked functional context and
// assembles the live-point, its set records not yet sorted.
func capture(p *prog.Program, master *mem.Memory, arch functional.State,
	hier *cache.Hier, preds []*bpred.Predictor, opts CreateOpts,
	index int, design sampling.Design, funcWarm uint64) (*LivePoint, error) {

	winLen := funcWarm + design.WindowLen()
	lp := &LivePoint{
		Benchmark:  p.Name,
		Index:      index,
		Position:   design.Positions[index],
		WarmLen:    design.WarmLen,
		UnitLen:    design.UnitLen,
		FuncWarm:   funcWarm,
		Restricted: opts.Restricted,
		Arch:       ArchState{PC: arch.PC, Regs: arch.Regs},
	}

	// Scout: fork the architectural state over an observing overlay and
	// execute the window, recording first-reads (the live-state), the
	// executed path, the touched data blocks, and the branch outcomes.
	overlay := mem.NewOverlay(master)
	overlay.Observe(func(addr, val uint64, ok bool) {
		if ok {
			lp.Mem.Set(addr, val)
		}
	})
	scout := functional.New(p, overlay)
	scout.State = arch

	touchedData := make(map[uint64]bool)
	touchedText := make(map[uint64]bool)
	var branches []bpred.BranchOutcome

	pcs := make(map[uint64]bool, 1024)
	scoutLen := winLen + runAhead
	for i := uint64(0); i < scoutLen; i++ {
		if scout.Halted {
			if i < winLen {
				return nil, fmt.Errorf("scout halted inside window at %d of %d", i, winLen)
			}
			break // benchmark end reached inside the run-ahead margin
		}
		pc := scout.PC
		in, ok := p.Fetch(pc)
		if !ok {
			return nil, fmt.Errorf("scout fetch failed at pc %d", pc)
		}
		pcs[pc] = true
		touchedText[isa.PCToAddr(pc)] = true
		if in.Op.IsMem() {
			// Effective address from the pre-execution register values.
			addr := mem.WordAlign(scout.Reg(in.Rs1) + uint64(in.Imm))
			touchedData[addr] = true
		}
		if err := scout.Step(); err != nil {
			return nil, fmt.Errorf("scout failed at %d of %d: %v", i, scoutLen, err)
		}
		if in.Op.IsBranch() {
			branches = append(branches, bpred.BranchOutcome{
				PC:    isa.PCToAddr(pc),
				In:    in,
				Taken: scout.PC != pc+1,
			})
		}
	}

	lp.Text = buildTextRanges(p, pcs, opts.textPad())

	if hier != nil {
		captureCaches(lp, hier, preds, opts, touchedData, touchedText, branches)
	}
	return lp, nil
}

// captureCaches snapshots the warmed long-history structures, applying the
// restricted-live-state filter when requested. The set records are left
// unsorted (Create's second stage sorts them); Restrict keeps order, so a
// restricted record is filtered first and only what is kept is sorted.
func captureCaches(lp *LivePoint, hier *cache.Hier, preds []*bpred.Predictor,
	opts CreateOpts, touchedData, touchedText map[uint64]bool, branches []bpred.BranchOutcome) {

	capOne := func(c *cache.Cache, touched map[uint64]bool) *csr.SetRecord {
		sr := csr.CaptureUnsorted(c)
		if !opts.Restricted {
			return sr
		}
		keep := make(map[uint64]bool, len(touched))
		for addr := range touched {
			keep[c.BlockOf(addr)] = true
		}
		return sr.Restrict(keep)
	}
	// The unified L2 sees both instruction and data blocks.
	both := touchedData
	if opts.Restricted {
		both = make(map[uint64]bool, len(touchedData)+len(touchedText))
		for a := range touchedData {
			both[a] = true
		}
		for a := range touchedText {
			both[a] = true
		}
	}
	lp.Caches = []*csr.SetRecord{
		capOne(hier.L1I, touchedText),
		capOne(hier.L1D, touchedData),
		capOne(hier.L2, both),
	}
	lp.TLBs = []*csr.SetRecord{
		capOne(hier.ITLB, touchedText),
		capOne(hier.DTLB, touchedData),
	}
	for _, pr := range preds {
		src := pr
		if opts.Restricted {
			src = pr.Restrict(branches)
		}
		lp.Preds = append(lp.Preds, PredSnapshot{Cfg: src.Config(), Data: src.Snapshot()})
	}
}

// buildTextRanges pads the executed pc set and merges it into contiguous
// ranges of stored instructions.
func buildTextRanges(p *prog.Program, pcs map[uint64]bool, pad int) []TextRange {
	if len(pcs) == 0 {
		return nil
	}
	sorted := make([]uint64, 0, len(pcs))
	for pc := range pcs {
		sorted = append(sorted, pc)
	}
	slices.Sort(sorted)

	textLen := uint64(p.TextLen())
	var ranges []TextRange
	var curStart, curEnd uint64 // [curStart, curEnd)
	flush := func() {
		if curEnd > curStart {
			insts := make([]isa.Inst, 0, curEnd-curStart)
			for pc := curStart; pc < curEnd; pc++ {
				in, _ := p.Fetch(pc)
				insts = append(insts, in)
			}
			ranges = append(ranges, TextRange{StartPC: curStart, Insts: insts})
		}
	}
	for i, pc := range sorted {
		lo := uint64(0)
		if pc > uint64(pad) {
			lo = pc - uint64(pad)
		}
		hi := pc + uint64(pad) + 1
		if hi > textLen {
			hi = textLen
		}
		if i == 0 || lo > curEnd {
			flush()
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	flush()
	return ranges
}
