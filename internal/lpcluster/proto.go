// Package lpcluster distributes a live-point sampling run across a fleet
// of worker processes — the paper's §7.2 scale-out claim made concrete:
// simulation turnaround drops from the length of one serial pass to the
// length of the slowest lease once points are simulated concurrently on
// many machines.
//
// The design is a lease-based coordinator. One coordinator owns the run:
// it partitions the library into leases with an expiry deadline, hands
// them to whichever worker asks (POST /v1/leases), folds posted CPIs in
// read order (POST /v1/results), applies the §6.1 online stopping rule
// across the whole fleet, and reassigns leases whose workers crashed or
// stalled past the deadline. Workers are stateless pullers: fetch a lease,
// fetch the leased bytes through lpserve's raw gzip endpoints, simulate
// locally, post per-point CPIs back, repeat.
//
// The coordinator is four parts (DESIGN.md §3.5), and each rule of the
// design is stated at the one that keeps it: the lease table (leases.go)
// cuts the library into whole shards, or into read-order ranges under a
// stopping rule; the fold (fold.go) folds a read-order prefix through
// sampling.Ordered and stops by the local runners' sampling.Rule, where
// and as RunFile does; the journal (journal.go) makes the run outlive its
// coordinator; Coordinator composes them.
package lpcluster

import (
	"flag"
	"fmt"
	"time"

	"livepoints/internal/lpstore"
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

	// Matched-mode experimental overrides (SpecFlags' -memlat -l2kb -ruu).
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

// Configs resolves the spec's k configurations — the baseline, then for
// matched mode the experimental — refusing a mode or a machine name it
// does not know and overrides that describe a machine no worker could
// build.
func (s RunSpec) Configs() ([]uarch.Config, error) {
	s = s.withDefaults()
	base, err := uarch.ConfigByName(s.Config)
	if err != nil {
		return nil, fmt.Errorf("lpcluster: %w", err)
	}
	switch s.Mode {
	case ModeAbsolute:
		return []uarch.Config{base}, nil
	case ModeMatched:
		exp := base
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
		if err := exp.Validate(); err != nil {
			return nil, fmt.Errorf("lpcluster: %w", err)
		}
		return []uarch.Config{base, exp}, nil
	}
	return nil, fmt.Errorf("lpcluster: unknown run mode %q", s.Mode)
}

// Rule returns the spec's stopping rule: the one the local runners stop
// by. The no-impact screen belongs to matched runs alone.
func (s RunSpec) Rule() sampling.Rule {
	s = s.withDefaults()
	rule := sampling.Rule{Z: s.Z, RelErr: s.RelErr}
	if s.Mode == ModeMatched {
		rule.NoImpact = s.NoImpactThreshold
	}
	return rule
}

// SpecFlags registers -config -err -matched -memlat -l2kb -ruu on fs, for
// lpsim and lpserved -cluster alike, and returns the RunSpec builder to
// call once fs is parsed. Its one policy, kept out of Rule so journals
// keep their meaning: a matched run targets ±err/2 on the delta and
// screens at ±err, and -err 0 is the whole library.
func SpecFlags(fs *flag.FlagSet, defaultErr float64) func() RunSpec {
	config := fs.String("config", "8way", "simulated configuration: 8way or 16way")
	relErr := fs.Float64("err", defaultErr, "relative error target; a matched run targets err/2 on the delta and screens for no impact at ±err (0 = whole library)")
	matched := fs.Bool("matched", false, "matched-pair comparison against a modified configuration")
	memLat := fs.Int("memlat", 0, "matched: override memory latency (cycles)")
	l2KB := fs.Int("l2kb", 0, "matched: override L2 size (KB, must be within library max)")
	ruu := fs.Int("ruu", 0, "matched: override RUU size")
	return func() RunSpec {
		spec := RunSpec{Config: *config, RelErr: *relErr}
		if *matched {
			spec.Mode = ModeMatched
			spec.RelErr, spec.NoImpactThreshold = *relErr/2, *relErr
			spec.MemLat, spec.L2KB, spec.RUU = *memLat, *l2KB, *ruu
		}
		return spec
	}
}

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Coverage names the points of one lease: a whole shard, or a run of
// read-order positions. It is what a Lease tells its worker to fetch, what
// the coordinator keeps of an outstanding lease, and what the journal
// records beside a result. Positions themselves are never sent or stored:
// read order and shard membership are properties of the store.
type Coverage struct {
	Kind  string `json:"kind,omitempty"`  // LeaseShard or LeaseRange
	Shard int    `json:"shard,omitempty"` // shard: which one
	Start int    `json:"start,omitempty"` // range: first read-order position
	Count int    `json:"count,omitempty"` // points covered (either kind)
}

// positions returns the read-order positions c covers in st, in the order
// the lease's CPIs arrive: the shard's storage order, or ascending.
func (c Coverage) positions(st *lpstore.Store) ([]int, error) {
	switch c.Kind {
	case LeaseShard:
		return st.ShardReadPositions(c.Shard)
	case LeaseRange:
		if c.Start < 0 || c.Count <= 0 || c.Count > st.Count()-c.Start {
			return nil, fmt.Errorf("lpcluster: range of %d points at %d exceeds library of %d points",
				c.Count, c.Start, st.Count())
		}
		positions := make([]int, c.Count)
		for i := range positions {
			positions[i] = c.Start + i
		}
		return positions, nil
	}
	return nil, fmt.Errorf("lpcluster: unknown lease kind %q", c.Kind)
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
	ID    uint64 `json:"id"`
	Epoch uint64 `json:"epoch"`
	Coverage
	Points    int   `json:"points"` // points covered: Count under the name older workers read
	TTLMillis int64 `json:"ttlMillis"`
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

// Partial is what one completed lease contributes to the run: per-point
// CPIs in the order Coverage.positions gives (both configurations for
// matched mode) plus the worker's summed counters and timings. A Result
// carries it to the coordinator and the journal records it as it arrived.
type Partial struct {
	CPIs     []float64 `json:"cpis,omitempty"`     // absolute mode
	BaseCPIs []float64 `json:"baseCpis,omitempty"` // matched mode
	ExpCPIs  []float64 `json:"expCpis,omitempty"`  // matched mode

	UnknownFetches uint64 `json:"unknownFetches,omitempty"`
	UnknownLoads   uint64 `json:"unknownLoads,omitempty"`
	CaptureErrors  uint64 `json:"captureErrors,omitempty"`
	LoadMillis     int64  `json:"loadMillis,omitempty"`
	SimMillis      int64  `json:"simMillis,omitempty"`
}

// maxCPI bounds a believable CPI: a window's cycles are counted in a uint64
// and it commits at least one instruction.
const maxCPI = 1 << 64

// columns maps a run's k CPI columns to their wire names: cpis, or
// baseCpis and expCpis.
func (p *Partial) columns(k int) []*[]float64 {
	if k == 1 {
		return []*[]float64{&p.CPIs}
	}
	return []*[]float64{&p.BaseCPIs, &p.ExpCPIs}
}

// check is the one test a partial passes before it is journaled or folded,
// whether a worker posted it or a journal held it: each of the run's k
// columns has one CPI for each of the lease's n points, and none is zero,
// negative, NaN, or too large to believe (or to square into a variance).
func (p *Partial) check(k, n int) error {
	for _, col := range p.columns(k) {
		if len(*col) != n {
			return fmt.Errorf("got %d CPIs for %d points", len(*col), n)
		}
		for _, v := range *col {
			if !(v > 0 && v <= maxCPI) {
				return fmt.Errorf("CPI %v is not a positive cycle count per instruction", v)
			}
		}
	}
	return nil
}

// Result carries one completed lease's Partial back to the coordinator.
type Result struct {
	LeaseID uint64 `json:"leaseId"`
	// Epoch must echo the lease's Epoch; a stale epoch is rejected 410.
	Epoch  uint64 `json:"epoch"`
	Worker string `json:"worker"`
	Partial
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

	Done          int `json:"done"` // positions accepted, folded or held past a gap
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
	N               int     `json:"n,omitempty"` // positions folded: the read-order prefix
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

// Progress returns the run's live progress as logfmt key/value pairs: the
// "fleet progress" line that lpsim -coord and lpworker both log.
func (s *RunState) Progress() []any {
	kv := []any{
		"done", s.Done, "total", s.Points,
		"active", s.ActiveLeases, "reassigned", s.Reassigned,
		"pointsPerSec", s.PointsPerSec,
	}
	if s.Spec.Rule().Active() {
		kv = append(kv, "relCI", s.RelCI, "target", s.TargetRelErr)
	}
	if s.EtaMillis > 0 {
		kv = append(kv, "eta", time.Duration(s.EtaMillis)*time.Millisecond)
	}
	return kv
}
