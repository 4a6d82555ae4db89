// Package uarch implements the detailed cycle-level out-of-order
// superscalar timing model — the stand-in for SimpleScalar 3.0
// sim-outorder with the paper's memory-system extensions (store buffer,
// MSHRs, interconnect bottlenecks).
//
// The model follows the classic register-update-unit organization:
// dispatch-time functional execution with a speculative shadow context for
// wrong-path instructions, a unified RUU (reorder buffer + reservation
// stations), a load/store queue with store-to-load forwarding, finite
// functional-unit pools, and fetch driven by the branch predictor,
// including full wrong-path fetch and execution — the behaviour the
// paper's live-state design must approximate when state is missing.
package uarch

import (
	"fmt"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/isa"
)

// Config describes one microarchitectural configuration (a Table 1 column).
type Config struct {
	Name string

	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int
	IFQSize     int

	RUUSize int
	LSQSize int

	// Functional unit counts per class.
	IntALU int
	IntMul int
	FPALU  int
	FPMul  int

	MemPorts int // L1D ports usable per cycle

	// BranchPenalty is the front-end refill penalty applied on
	// misprediction recovery, beyond the natural resolution delay.
	BranchPenalty int
	// PredsPerCycle bounds conditional-branch predictions per fetch cycle.
	PredsPerCycle int

	// DetailedWarm is the number of detailed-warming instructions the
	// sample design prescribes before each 1000-instruction measurement.
	DetailedWarm int

	Hier cache.HierConfig
	BP   bpred.Config
}

// maxRUUSize bounds RUUSize. A consumer link holds a ring position in 30
// bits; the bound sits far below that so that a window a request names is
// also one a worker can allocate (a slot is a few hundred bytes).
const maxRUUSize = 1 << 16

// Validate reports the first field of c the core cannot be built from. A
// configuration that passes it cannot deadlock the pipeline for want of a
// resource: every width, queue, functional-unit pool and port has at least
// one entry.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"DecodeWidth", c.DecodeWidth},
		{"IssueWidth", c.IssueWidth}, {"CommitWidth", c.CommitWidth},
		{"IFQSize", c.IFQSize}, {"RUUSize", c.RUUSize}, {"LSQSize", c.LSQSize},
		{"IntALU", c.IntALU}, {"IntMul", c.IntMul}, {"FPALU", c.FPALU}, {"FPMul", c.FPMul},
		{"MemPorts", c.MemPorts}, {"PredsPerCycle", c.PredsPerCycle},
	} {
		if f.v < 1 || f.v > maxRUUSize {
			return fmt.Errorf("uarch %s: %s %d outside 1..%d", c.Name, f.name, f.v, maxRUUSize)
		}
	}
	if c.BranchPenalty < 0 || c.DetailedWarm < 0 {
		return fmt.Errorf("uarch %s: negative BranchPenalty %d or DetailedWarm %d", c.Name, c.BranchPenalty, c.DetailedWarm)
	}
	if err := c.Hier.Validate(); err != nil {
		return fmt.Errorf("uarch %s: %w", c.Name, err)
	}
	if err := c.BP.Validate(); err != nil {
		return fmt.Errorf("uarch %s: %w", c.Name, err)
	}
	return nil
}

// latInfo is the latency/occupancy of one operation.
type latInfo struct {
	class    isa.Class
	latency  int
	interval int // issue interval (== latency for unpipelined units)
}

// opLat maps each op to its functional-unit class and timing, in the
// SimpleScalar tradition (ALU 1 cycle; IMUL 3; IDIV 20 unpipelined; FP add
// 2; FP mul 4; FP div 12 unpipelined).
var opLat = func() [isa.NumOps]latInfo {
	var t [isa.NumOps]latInfo
	for op := 0; op < isa.NumOps; op++ {
		o := isa.Op(op)
		switch o.Class() {
		case isa.ClassIntALU:
			t[op] = latInfo{isa.ClassIntALU, 1, 1}
		case isa.ClassIntMul:
			t[op] = latInfo{isa.ClassIntMul, 3, 1}
		case isa.ClassFPALU:
			t[op] = latInfo{isa.ClassFPALU, 2, 1}
		case isa.ClassFPMul:
			t[op] = latInfo{isa.ClassFPMul, 4, 1}
		case isa.ClassMem:
			// Address generation; cache latency is added separately.
			t[op] = latInfo{isa.ClassMem, 1, 1}
		case isa.ClassBranch:
			// Branches resolve on an integer ALU.
			t[op] = latInfo{isa.ClassIntALU, 1, 1}
		default:
			t[op] = latInfo{isa.ClassNone, 1, 1}
		}
	}
	t[isa.OpDiv] = latInfo{isa.ClassIntMul, 20, 19}
	t[isa.OpRem] = latInfo{isa.ClassIntMul, 20, 19}
	t[isa.OpFDiv] = latInfo{isa.ClassFPMul, 12, 12}
	return t
}()

// Config8Way returns the paper's baseline 8-way out-of-order superscalar
// (Table 1, left column).
func Config8Way() Config {
	return Config{
		Name:        "8-way",
		FetchWidth:  8,
		DecodeWidth: 8,
		IssueWidth:  8,
		CommitWidth: 8,
		IFQSize:     32,
		RUUSize:     128,
		LSQSize:     64,
		IntALU:      4,
		IntMul:      2,
		FPALU:       2,
		FPMul:       1,
		MemPorts:    2,

		BranchPenalty: 7,
		PredsPerCycle: 1,
		DetailedWarm:  2000,

		Hier: cache.HierConfig{
			L1I:          cache.Config{Name: "l1i", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLat: 1},
			L1D:          cache.Config{Name: "l1d", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLat: 1},
			L2:           cache.Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 4, LineBytes: 128, HitLat: 12},
			ITLB:         cache.Config{Name: "itlb", SizeBytes: 128 * 4096, Assoc: 4, LineBytes: 4096, HitLat: 0},
			DTLB:         cache.Config{Name: "dtlb", SizeBytes: 256 * 4096, Assoc: 4, LineBytes: 4096, HitLat: 0},
			TLBMissLat:   200,
			MemLat:       100,
			DMSHRs:       8,
			StoreBufSize: 16,
			StoreDrain:   2,
			L2BusBusy:    4,
			MemBusBusy:   8,
		},
		BP: bpred.Config{
			Name:      "comb-2k",
			Kind:      bpred.Combined,
			TableSize: 2048,
			HistBits:  11,
			BTBSets:   512,
			BTBAssoc:  4,
			RASSize:   8,
		},
	}
}

// Config16Way returns the paper's aggressive 16-way configuration
// (Table 1, right column).
func Config16Way() Config {
	return Config{
		Name:        "16-way",
		FetchWidth:  16,
		DecodeWidth: 16,
		IssueWidth:  16,
		CommitWidth: 16,
		IFQSize:     64,
		RUUSize:     256,
		LSQSize:     128,
		IntALU:      16,
		IntMul:      8,
		FPALU:       8,
		FPMul:       4,
		MemPorts:    4,

		BranchPenalty: 10,
		PredsPerCycle: 2,
		DetailedWarm:  4000,

		Hier: cache.HierConfig{
			L1I:          cache.Config{Name: "l1i", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 32, HitLat: 2},
			L1D:          cache.Config{Name: "l1d", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 32, HitLat: 2},
			L2:           cache.Config{Name: "l2", SizeBytes: 4 << 20, Assoc: 8, LineBytes: 128, HitLat: 16},
			ITLB:         cache.Config{Name: "itlb", SizeBytes: 128 * 4096, Assoc: 4, LineBytes: 4096, HitLat: 0},
			DTLB:         cache.Config{Name: "dtlb", SizeBytes: 256 * 4096, Assoc: 4, LineBytes: 4096, HitLat: 0},
			TLBMissLat:   200,
			MemLat:       100,
			DMSHRs:       16,
			StoreBufSize: 32,
			StoreDrain:   1,
			L2BusBusy:    2,
			MemBusBusy:   4,
		},
		BP: bpred.Config{
			Name:      "comb-8k",
			Kind:      bpred.Combined,
			TableSize: 8192,
			HistBits:  13,
			BTBSets:   1024,
			BTBAssoc:  4,
			RASSize:   16,
		},
	}
}

// ConfigByName returns the Table 1 machine that a flag or a run spec names,
// "8way" or "16way". Any other name is an error, never a default.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "8way":
		return Config8Way(), nil
	case "16way":
		return Config16Way(), nil
	}
	return Config{}, fmt.Errorf("uarch: unknown configuration %q (want 8way or 16way)", name)
}

// MeasureLen is the paper's measurement-interval length in instructions.
const MeasureLen = 1000

// WindowLen returns detailed warming plus measurement: the instructions a
// live-point must support simulating.
func (c Config) WindowLen() int { return c.DetailedWarm + MeasureLen }
