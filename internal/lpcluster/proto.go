// Package lpcluster distributes a live-point sampling run across a fleet
// of worker processes — the paper's §7.2 scale-out claim made concrete:
// simulation turnaround drops from the length of one serial pass to the
// length of the slowest lease once points are simulated concurrently on
// many machines.
//
// The design is a lease-based coordinator. One coordinator owns the run:
// it partitions the library into leases with an expiry deadline, hands
// them to whichever worker asks (POST /v1/leases), folds posted partial
// statistics in completion order (POST /v1/results), applies the §6.1
// online stopping rule across the whole fleet, and reassigns leases whose
// workers crashed or stalled past the deadline. Workers are stateless
// pullers: fetch a lease, fetch the leased bytes through lpserve's raw
// gzip endpoints, simulate locally, post per-point CPIs back, repeat.
//
// Lease shapes follow the bias rules of DESIGN.md §3.3:
//
//   - Whole-library runs (no stopping rule) issue shard-major leases, so
//     workers ride the stored-gzip passthrough and every shard is
//     decompressed exactly once, by exactly one worker.
//   - Runs with an online stopping rule issue read-order range leases.
//     A truncated shard-major prefix groups physically consecutive
//     points, which on an index-reshuffled store is not an unbiased
//     sample; a read-order prefix is.
//
// Whole-library cluster runs are bit-equal to the local RunFile path: the
// coordinator records every per-point CPI at its read-order position and,
// once the library is exhausted, refolds them in read order — the same
// float operations, in the same order, as a serial local run. Online-
// stopped runs fold partials in completion order (like local parallel
// runs, the exact stopping point is scheduling-dependent but every prefix
// is a valid random sub-sample).
package lpcluster

import (
	"fmt"

	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// Run modes.
const (
	ModeAbsolute = "absolute" // single-configuration CPI estimate
	ModeMatched  = "matched"  // §6.2 matched-pair comparison
)

// Lease kinds.
const (
	LeaseShard = "shard" // one whole shard, fetched via raw-gzip passthrough
	LeaseRange = "range" // read-order positions [Start, Start+Count)
)

// RunSpec describes the experiment a cluster executes. Workers receive it
// from GET /v1/run and resolve the configurations locally, so the wire
// carries names and overrides, not microarchitectural state.
type RunSpec struct {
	Mode   string  `json:"mode"`   // ModeAbsolute (default) or ModeMatched
	Config string  `json:"config"` // "8way" (default) or "16way"
	Z      float64 `json:"z"`      // confidence quantile (default sampling.Z997)
	RelErr float64 `json:"relErr"` // online stopping target; 0 = whole library

	// Matched-mode experimental overrides, mirroring lpsim's flags.
	MemLat int `json:"memLat,omitempty"` // memory latency (cycles)
	L2KB   int `json:"l2kb,omitempty"`   // L2 size (KB)
	RUU    int `json:"ruu,omitempty"`    // RUU entries
	// NoImpactThreshold, when positive, also stops once the delta is
	// confidently within ±threshold of zero (the §6.2 screen).
	NoImpactThreshold float64 `json:"noImpactThreshold,omitempty"`
}

// withDefaults fills the defaulted fields in.
func (s RunSpec) withDefaults() RunSpec {
	if s.Mode == "" {
		s.Mode = ModeAbsolute
	}
	if s.Config == "" {
		s.Config = "8way"
	}
	if s.Z == 0 {
		s.Z = sampling.Z997
	}
	return s
}

// Configs resolves the spec's baseline and (for matched mode)
// experimental microarchitectural configurations, refusing overrides that
// describe a machine no worker could build.
func (s RunSpec) Configs() (base, exp uarch.Config, err error) {
	switch s.Config {
	case "", "8way":
		base = uarch.Config8Way()
	case "16way":
		base = uarch.Config16Way()
	default:
		return base, exp, fmt.Errorf("lpcluster: unknown configuration %q", s.Config)
	}
	exp = base
	if s.Mode == ModeMatched {
		exp.Name = "experimental"
		if s.MemLat > 0 {
			exp.Hier.MemLat = s.MemLat
		}
		if s.L2KB > 0 {
			exp.Hier.L2.SizeBytes = int64(s.L2KB) << 10
		}
		if s.RUU > 0 {
			exp.RUUSize = s.RUU
		}
	}
	if err := exp.Validate(); err != nil {
		return base, exp, fmt.Errorf("lpcluster: %w", err)
	}
	return base, exp, nil
}

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is one unit of assigned work. The worker must post its Result
// before the lease's deadline (TTLMillis from issue) or the coordinator
// reassigns the same points under a new lease id.
//
// Epoch is the coordinator incarnation that issued the lease; the worker
// echoes it in the Result. A journaled coordinator that is restarted
// bumps its epoch, so results for pre-restart leases — whose ids may
// collide with fresh ones — are rejected with 410 instead of folded
// twice.
type Lease struct {
	ID        uint64 `json:"id"`
	Epoch     uint64 `json:"epoch"`
	Kind      string `json:"kind"` // LeaseShard or LeaseRange
	Shard     int    `json:"shard,omitempty"`
	Start     int    `json:"start,omitempty"` // range: first read-order position
	Count     int    `json:"count,omitempty"` // range: number of positions
	Points    int    `json:"points"`          // points covered (either kind)
	TTLMillis int64  `json:"ttlMillis"`
}

// LeaseResponse answers POST /v1/leases: a lease, a wait hint (work is
// outstanding but all of it is leased), or done (run complete — the
// worker should exit).
type LeaseResponse struct {
	Lease      *Lease `json:"lease,omitempty"`
	Wait       bool   `json:"wait,omitempty"`
	WaitMillis int64  `json:"waitMillis,omitempty"`
	Done       bool   `json:"done,omitempty"`
}

// Result carries one completed lease's partial statistics back to the
// coordinator: per-point CPIs in the lease's read order (both
// configurations for matched mode) plus aggregated counters and timings.
type Result struct {
	LeaseID uint64 `json:"leaseId"`
	// Epoch must echo the lease's Epoch; a stale epoch is rejected 410.
	Epoch  uint64 `json:"epoch"`
	Worker string `json:"worker"`

	CPIs     []float64 `json:"cpis,omitempty"`     // absolute mode
	BaseCPIs []float64 `json:"baseCpis,omitempty"` // matched mode
	ExpCPIs  []float64 `json:"expCpis,omitempty"`  // matched mode

	UnknownFetches uint64 `json:"unknownFetches,omitempty"`
	UnknownLoads   uint64 `json:"unknownLoads,omitempty"`
	CaptureErrors  uint64 `json:"captureErrors,omitempty"`
	LoadMillis     int64  `json:"loadMillis,omitempty"`
	SimMillis      int64  `json:"simMillis,omitempty"`
}

// ResultResponse answers POST /v1/results. Done tells the worker the run
// is complete (e.g. the stopping rule fired on this very partial).
type ResultResponse struct {
	Accepted bool `json:"accepted"`
	Done     bool `json:"done,omitempty"`
}

// Run phases reported by GET /v1/run.
const (
	PhaseRunning = "running"
	PhaseDone    = "done"
)

// RunState is the coordinator's public snapshot (GET /v1/run): live
// progress while running, the folded fleet-wide result once done.
// lpsim -coord polls it; workers read Spec from it at startup.
//
// The estimate fields (N, Mean, RelCI, and the matched-pair set) are
// populated in *both* phases: mid-run they report the fleet's running
// fold — a valid estimate over the prefix seen so far (§6.1) — so
// operators can watch the confidence interval close on TargetRelErr.
type RunState struct {
	Spec   RunSpec `json:"spec"`
	Points int     `json:"points"` // library size
	Phase  string  `json:"phase"`
	Epoch  uint64  `json:"epoch"` // coordinator incarnation (>0 after a journal resume)

	Done          int `json:"done"` // positions completed
	ActiveLeases  int `json:"activeLeases"`
	PendingLeases int `json:"pendingLeases"` // reclaimed, awaiting reassignment
	Reassigned    int `json:"reassigned"`    // expired leases reissued so far

	// Stopping-rule progress, live while running.
	TargetRelErr float64 `json:"targetRelErr,omitempty"` // 0 = whole library
	PointsPerSec float64 `json:"pointsPerSec,omitempty"` // fleet-wide fold rate
	EtaMillis    int64   `json:"etaMillis,omitempty"`    // whole-library runs only

	// Estimate so far (live) / final result (Phase == PhaseDone).
	Stopped         bool    `json:"stopped,omitempty"` // §6.1 rule fired
	StoppedNoImpact bool    `json:"stoppedNoImpact,omitempty"`
	N               int     `json:"n,omitempty"`
	Mean            float64 `json:"mean,omitempty"`
	RelCI           float64 `json:"relCI,omitempty"`
	BaseMean        float64 `json:"baseMean,omitempty"` // matched mode
	ExpMean         float64 `json:"expMean,omitempty"`
	RelDelta        float64 `json:"relDelta,omitempty"`
	DeltaCI         float64 `json:"deltaCI,omitempty"`

	UnknownFetches uint64 `json:"unknownFetches,omitempty"`
	UnknownLoads   uint64 `json:"unknownLoads,omitempty"`
	CaptureErrors  uint64 `json:"captureErrors,omitempty"`
	LoadMillis     int64  `json:"loadMillis,omitempty"`
	SimMillis      int64  `json:"simMillis,omitempty"`
	ElapsedMillis  int64  `json:"elapsedMillis,omitempty"`
}
