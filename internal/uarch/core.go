package uarch

import (
	"fmt"
	"math/bits"
	"slices"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
)

// Stats accumulates detailed-simulation event counts.
type Stats struct {
	Cycles    uint64
	Committed uint64

	Dispatched    uint64
	WrongPathDisp uint64
	Recoveries    uint64 // correct-path branch mispredictions

	// Live-state approximation events (§5 of the paper): wrong-path
	// fetches from unavailable text and wrong-path loads of unavailable
	// memory words. CorrectPathUnknownLoads must be zero for full
	// live-state; non-zero values indicate capture bugs or, for
	// restricted live-state experiments, the expected approximation.
	UnknownFetches            uint64
	UnknownLoads              uint64
	CorrectPathUnknownLoads   uint64
	CorrectPathUnknownFetches uint64
}

// CPI returns cycles per committed instruction.
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// entry is one RUU (unified ROB/reservation-station) slot. The flags sit
// together so that a slot, which dispatch writes whole, stays small.
type entry struct {
	seq  uint64
	pc   uint64
	inst isa.Inst

	// Wake-up state. dep names the producers that were incomplete when this
	// entry dispatched (two register sources and a forwarding store at
	// most); pending counts those still incomplete. consumers heads this
	// entry's list of waiting consumers, youngest first, and next[i]
	// continues the list this entry joined for dep[i]. Only pending and the
	// links drive the scheduler; dep is the record the invariant checker
	// (checkSets, in the tests) recounts pending from.
	dep       [3]uint64
	next      [3]link
	consumers link
	nDep      uint8
	pending   uint8

	issued    bool
	completed bool

	wrongPath    bool
	unknownFetch bool
	isLoad       bool
	isStore      bool
	fwdStore     bool
	isBranch     bool
	actTaken     bool
	doRecover    bool
	writesReg    bool

	doneAt   uint64
	memAddr  uint64
	predNext uint64 // predicted next pc (sentinel badPC when unknown)
	actNext  uint64
	bpSave   bpred.SpecLite
	rdVal    uint64
	memVal   uint64
}

// badPC is the sentinel "unknown predicted target".
const badPC = ^uint64(0)

// link is one step of a producer's consumer list: the ring position of a
// waiting entry and which of its dep slots waits on this producer, offset
// by one so that zero ends the list. maxRUUSize keeps every position
// within the encoding.
type link uint32

func mkLink(pos uint64, slot uint8) link { return link(pos<<2|uint64(slot)) + 1 }
func (l link) pos() uint64               { return uint64(l-1) >> 2 }
func (l link) slot() uint8               { return uint8(l-1) & 3 }

// posSet is a set of ring positions, one bit each.
type posSet []uint64

func (s posSet) add(p uint64)    { s[p>>6] |= 1 << (p & 63) }
func (s posSet) remove(p uint64) { s[p>>6] &^= 1 << (p & 63) }

// firstIn returns the lowest member of s in [lo, hi).
func (s posSet) firstIn(lo, hi uint64) (uint64, bool) {
	for lo < hi {
		if w := s[lo>>6] >> (lo & 63); w != 0 {
			p := lo + uint64(bits.TrailingZeros64(w))
			return p, p < hi
		}
		lo = (lo | 63) + 1
	}
	return 0, false
}

// lastIn returns the highest member of s in [lo, hi).
func (s posSet) lastIn(lo, hi uint64) (uint64, bool) {
	for lo < hi {
		p := hi - 1
		if w := s[p>>6] << (63 - p&63); w != 0 {
			p -= uint64(bits.LeadingZeros64(w))
			return p, p >= lo
		}
		hi = p &^ 63
	}
	return 0, false
}

// fetchRec is one fetched instruction waiting in the fetch queue.
type fetchRec struct {
	pc        uint64
	inst      isa.Inst
	unknown   bool
	isBranch  bool
	predNext  uint64
	bpSave    bpred.SpecLite
	fetchedAt uint64
}

// Core is one instantiated detailed out-of-order processor.
//
// The core maintains two architectural contexts. The dispatch context
// executes instructions speculatively, in fetched order (including wrong
// paths), against a copy-on-write memory overlay. The commit context
// re-executes instructions in program order at retirement against the real
// window memory; it is the authoritative architectural state, and must
// match pure functional simulation instruction-for-instruction (the
// handoff invariant tested in internal/warm).
//
// The RUU is a ring of a power-of-two number of slots, of which at most
// cfg.RUUSize are occupied: sequence number s lives at position s&mask.
// The scheduler never walks the window. Three sets of ring positions name
// the entries each stage has work for — ready (dispatched, not issued, no
// incomplete producer), inflight (issued, not completed) and stores — and a
// completing producer wakes exactly the consumers linked to it. DESIGN.md
// §2.1 gives the invariants and the ordering rules that keep this
// cycle-for-cycle equal to a full scan.
type Core struct {
	cfg  Config
	text functional.TextSource
	hier *cache.Hier
	bp   *bpred.Predictor

	commit    functional.State
	commitMem functional.MemRW

	disp    functional.State
	dispMem *mem.Overlay

	ruu       []entry
	mask      uint64
	headSeq   uint64
	tailSeq   uint64
	lsqCount  int
	createVec [isa.NumRegs]int64 // youngest in-window writer of each register, or -1

	ready    posSet
	inflight posSet
	stores   posSet

	fetchPC       uint64
	fetchReadyAt  uint64
	fetchHold     bool
	ifq           []fetchRec
	ifqHead       int
	lastFetchLine uint64
	specMode      bool

	fuBusy [isa.NumClasses][]uint64

	cycle           uint64
	halted          bool
	lastCommitCycle uint64

	Stat Stats
}

// NewCore builds a core over the given text, memory and pre-warmed
// microarchitectural structures: Reset on a fresh Core.
func NewCore(cfg Config, text functional.TextSource, commitMem functional.MemRW,
	arch functional.State, h *cache.Hier, bp *bpred.Predictor) *Core {
	c := new(Core)
	c.Reset(cfg, text, commitMem, arch, h, bp)
	return c
}

// Reset makes c a core over the given text, memory and pre-warmed
// microarchitectural structures, indistinguishable from a newly built one
// but reusing the ring, fetch queue, functional-unit tables and dispatch
// overlay it already owns. arch is the architectural starting state
// (registers and PC); commitMem receives committed stores. The hierarchy's
// transient cycle-domain state is reset; its cache/TLB contents are kept.
// cfg must validate.
func (c *Core) Reset(cfg Config, text functional.TextSource, commitMem functional.MemRW,
	arch functional.State, h *cache.Hier, bp *bpred.Predictor) {
	size := 1 << bits.Len(uint(cfg.RUUSize-1)) // the power of two at or above RUUSize
	words := (size + 63) / 64
	dispMem := c.dispMem
	if dispMem == nil {
		dispMem = mem.NewOverlay(commitMem)
	} else {
		dispMem.Rebind(commitMem)
	}
	fuBusy := c.fuBusy
	fuBusy[isa.ClassIntALU] = zeroed(fuBusy[isa.ClassIntALU], cfg.IntALU)
	fuBusy[isa.ClassIntMul] = zeroed(fuBusy[isa.ClassIntMul], cfg.IntMul)
	fuBusy[isa.ClassFPALU] = zeroed(fuBusy[isa.ClassFPALU], cfg.FPALU)
	fuBusy[isa.ClassFPMul] = zeroed(fuBusy[isa.ClassFPMul], cfg.FPMul)
	*c = Core{
		cfg:       cfg,
		text:      text,
		hier:      h,
		bp:        bp,
		commit:    arch,
		commitMem: commitMem,
		disp:      arch,
		dispMem:   dispMem,
		// Slots outside headSeq..tailSeq are never read, so a reused ring
		// needs no clearing: dispatch overwrites a slot before anything
		// looks at it.
		ruu:           slices.Grow(c.ruu[:0], size)[:size],
		mask:          uint64(size - 1),
		ready:         zeroed(c.ready, words),
		inflight:      zeroed(c.inflight, words),
		stores:        zeroed(c.stores, words),
		fetchPC:       arch.PC,
		lastFetchLine: badPC,
		ifq:           slices.Grow(c.ifq[:0], cfg.IFQSize),
		fuBusy:        fuBusy,
	}
	for i := range c.createVec {
		c.createVec[i] = -1
	}
	h.ResetTransients()
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed(s []uint64, n int) []uint64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// CommittedState returns the committed architectural state.
func (c *Core) CommittedState() functional.State { return c.commit }

// Cycle returns the current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether a correct-path halt instruction committed.
func (c *Core) Halted() bool { return c.halted }

func (c *Core) slot(seq uint64) *entry { return &c.ruu[seq&c.mask] }

// oldest returns the oldest member of set with sequence number at least
// from. The live sequence numbers from..tailSeq-1 occupy ring positions
// that wrap at most once.
func (c *Core) oldest(set posSet, from uint64) (uint64, bool) {
	lo, size := from&c.mask, c.mask+1
	end := lo + c.tailSeq - from
	if p, ok := set.firstIn(lo, min(end, size)); ok {
		return from + p - lo, true
	}
	if end > size {
		if p, ok := set.firstIn(0, end-size); ok {
			return from + size - lo + p, true
		}
	}
	return 0, false
}

// youngest returns the youngest member of set with sequence number below
// before.
func (c *Core) youngest(set posSet, before uint64) (uint64, bool) {
	lo, size := c.headSeq&c.mask, c.mask+1
	end := lo + before - c.headSeq
	if end > size {
		if p, ok := set.lastIn(0, end-size); ok {
			return c.headSeq + size - lo + p, true
		}
	}
	if p, ok := set.lastIn(lo, min(end, size)); ok {
		return c.headSeq + p - lo, true
	}
	return 0, false
}

// Run simulates until n more instructions commit or the program halts,
// returning the number committed during this call. The cycle counter and
// all pipeline state carry over across calls, so warming and measurement
// phases observe a continuously live pipeline.
//
// Cycles in which no pipeline stage can make progress (long memory stalls)
// are skipped to the next scheduled event; the resulting timing is
// identical to stepping cycle by cycle because every wake-up in the model
// is time-driven.
func (c *Core) Run(n uint64) uint64 {
	target := c.Stat.Committed + n
	for c.Stat.Committed < target && !c.halted {
		if !c.step(target) {
			c.skipToNextEvent()
		}
		if c.cycle-c.lastCommitCycle > 1<<21 {
			panic(fmt.Sprintf("uarch: no commit progress for %d cycles at cycle %d (pc=%d, head=%d tail=%d)",
				c.cycle-c.lastCommitCycle, c.cycle, c.commit.PC, c.headSeq, c.tailSeq))
		}
	}
	c.Stat.Cycles = c.cycle
	return c.Stat.Committed - (target - n)
}

// step simulates one cycle, committing no further than target, and
// reports whether any stage made progress.
func (c *Core) step(target uint64) bool {
	c.cycle++
	before := c.Stat.Committed
	c.stageCommit(target)
	active := int(c.Stat.Committed - before)
	active += c.stageWriteback()
	active += c.stageIssue()
	active += c.stageDispatch()
	active += c.stageFetch()
	return active > 0
}

// skipToNextEvent advances the cycle counter to just before the earliest
// time-driven wake-up: an in-flight completion, the fetch restart time, or
// a functional unit becoming free. Panics if the pipeline is provably
// deadlocked (no pending event at all).
func (c *Core) skipToNextEvent() {
	next := badPC
	for s, ok := c.oldest(c.inflight, c.headSeq); ok; s, ok = c.oldest(c.inflight, s+1) {
		if e := c.slot(s); e.doneAt < next {
			next = e.doneAt
		}
	}
	if !c.fetchHold && c.fetchReadyAt > c.cycle && c.fetchReadyAt < next {
		next = c.fetchReadyAt
	}
	for cl := range c.fuBusy {
		for _, busy := range c.fuBusy[cl] {
			if busy > c.cycle && busy < next {
				next = busy
			}
		}
	}
	if next == badPC {
		panic(fmt.Sprintf("uarch: pipeline deadlock at cycle %d (pc=%d, head=%d tail=%d, ifq=%d, hold=%v)",
			c.cycle, c.commit.PC, c.headSeq, c.tailSeq, len(c.ifq)-c.ifqHead, c.fetchHold))
	}
	if next > c.cycle+1 {
		c.cycle = next - 1
	}
}

// --- Commit ---------------------------------------------------------------

func (c *Core) stageCommit(target uint64) {
	for commits := 0; commits < c.cfg.CommitWidth && c.Stat.Committed < target; commits++ {
		if c.headSeq == c.tailSeq {
			return
		}
		e := c.slot(c.headSeq)
		if !e.completed {
			return
		}
		if e.wrongPath {
			// Wrong-path entries are squashed at recovery before the
			// mispredicted branch can commit; reaching here is a bug.
			panic(fmt.Sprintf("uarch: wrong-path entry at commit (seq %d, pc %d)", e.seq, e.pc))
		}
		if c.commit.PC != e.pc {
			panic(fmt.Sprintf("uarch: commit pc skew: committed state at %d, entry at %d", c.commit.PC, e.pc))
		}
		if e.unknownFetch {
			// A committed placeholder means correct-path text was missing
			// from the image — a live-state capture bug, surfaced as a
			// counter so experiments can assert on it.
			c.Stat.CorrectPathUnknownFetches++
		}
		res := functional.Exec(&c.commit, e.inst, c.commitMem)
		if res.Halt {
			c.halted = true
			c.retireHead(e)
			c.Stat.Committed++
			c.lastCommitCycle = c.cycle
			return
		}
		c.commit.PC = res.NextPC
		c.commit.InstRet++
		if e.isStore {
			stall := c.hier.CommitStore(e.memAddr, c.cycle)
			c.retireHead(e)
			c.Stat.Committed++
			c.lastCommitCycle = c.cycle
			if stall > 0 {
				return // store buffer full: commit stops this cycle
			}
			continue
		}
		if e.isBranch {
			c.bp.Update(isa.PCToAddr(e.pc), e.inst, e.actTaken, isa.PCToAddr(e.actNext))
		}
		c.retireHead(e)
		c.Stat.Committed++
		c.lastCommitCycle = c.cycle
	}
}

func (c *Core) retireHead(e *entry) {
	if e.isLoad || e.isStore {
		c.lsqCount--
	}
	if e.isStore {
		c.stores.remove(e.seq & c.mask)
	}
	if e.writesReg && c.createVec[e.inst.Rd] == int64(e.seq) {
		c.createVec[e.inst.Rd] = -1
	}
	c.headSeq++
	// Periodically compact the dispatch overlay so long correct-path runs
	// (golden full-benchmark simulations) do not accumulate an unbounded
	// shadow of committed stores.
	if c.Stat.Committed&0xffff == 0xffff {
		c.rebuildDispatchMemory()
	}
}

// --- Writeback / recovery ---------------------------------------------------

func (c *Core) stageWriteback() int {
	done := 0
	for s, ok := c.oldest(c.inflight, c.headSeq); ok; s, ok = c.oldest(c.inflight, s+1) {
		e := c.slot(s)
		if e.doneAt > c.cycle {
			continue
		}
		e.completed = true
		c.inflight.remove(s & c.mask)
		c.wake(e)
		done++
		if e.doRecover {
			c.recover(e)
			return done // everything younger is gone
		}
	}
	return done
}

// wake tells the consumers waiting on the completed producer e that it is
// done; one whose last producer this was becomes ready, in time for this
// cycle's issue stage.
func (c *Core) wake(e *entry) {
	for l := e.consumers; l != 0; {
		y := &c.ruu[l.pos()]
		if y.pending--; y.pending == 0 {
			c.ready.add(l.pos())
		}
		l = y.next[l.slot()]
	}
	e.consumers = 0
}

// recover squashes all entries younger than the mispredicted branch e,
// restores the dispatch context and predictor speculative state, and
// redirects fetch to the branch's actual target.
func (c *Core) recover(e *entry) {
	c.Stat.Recoveries++
	// Take the squashed entries out of the sets before their slots can be
	// dispatched into again.
	for s := e.seq + 1; s != c.tailSeq; s++ {
		y, p := c.slot(s), s&c.mask
		if y.isLoad || y.isStore {
			c.lsqCount--
		}
		c.ready.remove(p)
		c.inflight.remove(p)
		c.stores.remove(p)
	}
	c.tailSeq = e.seq + 1

	// Rebuild the register rename view from surviving entries, and unlink
	// the squashed consumers from the producers that survive: a consumer
	// list is youngest first, so they are its leading links.
	for i := range c.createVec {
		c.createVec[i] = -1
	}
	for s := c.headSeq; s != c.tailSeq; s++ {
		y := c.slot(s)
		if y.writesReg {
			c.createVec[y.inst.Rd] = int64(y.seq)
		}
		for l := y.consumers; l != 0 && c.ruu[l.pos()].seq > e.seq; l = y.consumers {
			y.consumers = c.ruu[l.pos()].next[l.slot()]
		}
	}

	// Rebuild the dispatch context: committed state plus the effects of
	// surviving in-flight instructions.
	c.disp.Regs = c.commit.Regs
	c.rebuildDispatchMemory()
	for s := c.headSeq; s != c.tailSeq; s++ {
		y := c.slot(s)
		if y.writesReg {
			c.disp.SetReg(y.inst.Rd, y.rdVal)
		}
	}

	c.bp.RestoreLite(e.bpSave)
	c.bp.ApplyOutcome(isa.PCToAddr(e.pc), e.inst, e.actTaken)

	c.fetchPC = e.actNext
	c.fetchReadyAt = c.cycle + uint64(c.cfg.BranchPenalty)
	c.fetchHold = false
	c.ifq = c.ifq[:0]
	c.ifqHead = 0
	c.lastFetchLine = badPC
	c.specMode = false
	e.doRecover = false
}

// rebuildDispatchMemory resets the dispatch overlay to the committed memory
// plus all surviving in-flight stores, oldest first.
func (c *Core) rebuildDispatchMemory() {
	c.dispMem.Reset()
	for s, ok := c.oldest(c.stores, c.headSeq); ok; s, ok = c.oldest(c.stores, s+1) {
		y := c.slot(s)
		c.dispMem.WriteWord(y.memAddr, y.memVal)
	}
}

// --- Issue ------------------------------------------------------------------

func (c *Core) stageIssue() int {
	issued := 0
	portsUsed := 0
	for s, ok := c.oldest(c.ready, c.headSeq); ok && issued < c.cfg.IssueWidth; s, ok = c.oldest(c.ready, s+1) {
		e := c.slot(s)
		li := opLat[e.inst.Op]
		// A structural hazard skips the entry without using issue width.
		switch {
		case e.isLoad && e.fwdStore:
			// Store-to-load forwarding: one cycle after data is ready.
			e.doneAt = c.cycle + 1
		case e.isLoad:
			if portsUsed >= c.cfg.MemPorts {
				continue
			}
			portsUsed++
			e.doneAt = c.hier.Load(e.memAddr, c.cycle)
		case e.isStore:
			if portsUsed >= c.cfg.MemPorts {
				continue
			}
			portsUsed++
			e.doneAt = c.hier.StoreAddr(e.memAddr, c.cycle)
		case li.class == isa.ClassNone:
			e.doneAt = c.cycle + 1
		default:
			fu := c.fuBusy[li.class]
			slot := -1
			for i := range fu {
				if fu[i] <= c.cycle {
					slot = i
					break
				}
			}
			if slot < 0 {
				continue
			}
			fu[slot] = c.cycle + uint64(li.interval)
			e.doneAt = c.cycle + uint64(li.latency)
		}
		e.issued = true
		c.ready.remove(s & c.mask)
		c.inflight.add(s & c.mask)
		issued++
	}
	return issued
}

// --- Dispatch ----------------------------------------------------------------

func (c *Core) stageDispatch() int {
	dispatched := 0
	for n := 0; n < c.cfg.DecodeWidth; n++ {
		if c.ifqHead >= len(c.ifq) {
			return dispatched
		}
		rec := &c.ifq[c.ifqHead]
		if rec.fetchedAt >= c.cycle {
			return dispatched // 1-cycle fetch-to-dispatch latency
		}
		if c.tailSeq-c.headSeq >= uint64(c.cfg.RUUSize) {
			return dispatched // RUU full
		}
		isMem := rec.inst.Op.IsMem()
		if isMem && c.lsqCount >= c.cfg.LSQSize {
			return dispatched // LSQ full
		}
		dispatched++

		seq := c.tailSeq
		c.tailSeq++
		e := c.slot(seq)
		*e = entry{
			seq:          seq,
			pc:           rec.pc,
			inst:         rec.inst,
			wrongPath:    c.specMode,
			unknownFetch: rec.unknown,
			isBranch:     rec.isBranch,
			predNext:     rec.predNext,
			bpSave:       rec.bpSave,
		}
		c.ifqHead++
		c.Stat.Dispatched++
		if c.specMode {
			c.Stat.WrongPathDisp++
		}

		// Register dependences.
		var srcs [2]uint8
		for _, r := range rec.inst.SrcRegs(srcs[:0]) {
			if r == isa.RegZero {
				continue
			}
			if ps := c.createVec[r]; ps >= 0 {
				c.waitFor(e, uint64(ps))
			}
		}

		// Dispatch-time functional execution against the speculative
		// context.
		c.disp.PC = rec.pc
		res := functional.Exec(&c.disp, rec.inst, c.dispMem)

		if isMem {
			c.lsqCount++
			e.memAddr = res.MemAddr
			e.isLoad = res.IsLoad
			e.isStore = res.IsStore
			if e.isStore {
				e.memVal = c.disp.Reg(rec.inst.Rs2)
				c.stores.add(seq & c.mask)
			}
			if e.isLoad {
				if !res.LoadOK {
					c.Stat.UnknownLoads++
					if !c.specMode {
						c.Stat.CorrectPathUnknownLoads++
					}
				}
				// Store-to-load forwarding from the youngest older
				// matching in-flight store.
				for s, ok := c.youngest(c.stores, seq); ok; s, ok = c.youngest(c.stores, s) {
					if c.slot(s).memAddr == e.memAddr {
						c.waitFor(e, s)
						e.fwdStore = true
						break
					}
				}
			}
		}
		if e.pending == 0 {
			c.ready.add(seq & c.mask)
		}

		if e.writesReg = rec.inst.WritesReg(); e.writesReg {
			e.rdVal = c.disp.Reg(rec.inst.Rd)
			c.createVec[rec.inst.Rd] = int64(seq)
		}

		if rec.isBranch {
			e.actTaken = res.Taken
			e.actNext = res.NextPC
			if rec.predNext != res.NextPC && !c.specMode {
				e.doRecover = true
				c.specMode = true
			}
		}
	}
	return dispatched
}

// waitFor makes the dispatching entry e wait for the in-window producer
// seq, unless that has already completed.
func (c *Core) waitFor(e *entry, seq uint64) {
	p := c.slot(seq)
	if p.completed {
		return
	}
	e.dep[e.nDep] = seq
	e.next[e.nDep] = p.consumers
	p.consumers = mkLink(e.seq&c.mask, e.nDep)
	e.nDep++
	e.pending++
}

// --- Fetch --------------------------------------------------------------------

func (c *Core) stageFetch() int {
	fetched := 0
	if c.fetchHold || c.cycle < c.fetchReadyAt {
		return 0
	}
	// Compact the fetch queue storage so it cannot grow without bound.
	if c.ifqHead > 0 && (c.ifqHead == len(c.ifq) || c.ifqHead >= 2*c.cfg.IFQSize) {
		c.ifq = append(c.ifq[:0], c.ifq[c.ifqHead:]...)
		c.ifqHead = 0
	}
	condPreds := 0
	lineBytes := uint64(c.cfg.Hier.L1I.LineBytes)
	for n := 0; n < c.cfg.FetchWidth && len(c.ifq)-c.ifqHead < c.cfg.IFQSize; n++ {
		addr := isa.PCToAddr(c.fetchPC)
		line := addr / lineBytes
		if line != c.lastFetchLine {
			done := c.hier.IFetch(addr, c.cycle)
			c.lastFetchLine = line
			if done > c.cycle+uint64(c.cfg.Hier.L1I.HitLat) {
				// I-cache miss: fetch resumes when the line arrives.
				c.fetchReadyAt = done
				return fetched + 1 // the access itself is progress
			}
		}
		in, ok := c.text.Fetch(c.fetchPC)
		rec := fetchRec{pc: c.fetchPC, inst: in, fetchedAt: c.cycle}
		if !ok {
			// Wrong-path fetch into unavailable text: the paper's
			// approximation treats it as a nop-like filler.
			rec.unknown = true
			rec.inst = isa.Inst{Op: isa.OpNop}
			c.Stat.UnknownFetches++
			c.ifq = append(c.ifq, rec)
			fetched++
			c.fetchPC++
			continue
		}
		if in.Op == isa.OpHalt {
			c.ifq = append(c.ifq, rec)
			c.fetchHold = true
			return fetched + 1
		}
		if in.Op.IsBranch() {
			if in.Op.IsCondBranch() {
				if condPreds >= c.cfg.PredsPerCycle {
					return fetched // prediction bandwidth exhausted this cycle
				}
				condPreds++
			}
			rec.isBranch = true
			rec.bpSave = c.bp.SaveLite()
			taken, tgtAddr, known := c.bp.Lookup(isa.PCToAddr(c.fetchPC), in)
			if taken {
				if !known {
					// No predicted target: fetch stalls until the branch
					// resolves and recovery redirects.
					rec.predNext = badPC
					c.ifq = append(c.ifq, rec)
					c.fetchHold = true
					return fetched + 1
				}
				rec.predNext = isa.AddrToPC(tgtAddr)
				c.ifq = append(c.ifq, rec)
				c.fetchPC = rec.predNext
				return fetched + 1 // taken-branch fetch break
			}
			rec.predNext = c.fetchPC + 1
			c.ifq = append(c.ifq, rec)
			fetched++
			c.fetchPC++
			continue
		}
		c.ifq = append(c.ifq, rec)
		fetched++
		c.fetchPC++
	}
	return fetched
}
