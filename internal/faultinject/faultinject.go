// Package faultinject is a deterministic, seed-driven fault-injection
// layer for the cluster path (coordinator + workers + serving). The
// paper's whole argument rests on the estimate staying valid while the
// sample is folded out of order, in parallel, and under early stopping
// (§6.1) — so a dropped, duplicated, delayed, truncated, or corrupted
// message anywhere between a worker and the coordinator must never
// double-fold or silently lose an observation.
//
// The package has three parts:
//
//   - a Schedule: a seeded, per-request-class fault decision stream. The
//     same seed always yields the same fault sequence for the same class,
//     independent of goroutine interleaving, so any failure reproduces
//     from its seed alone.
//   - two injection points driven by one Schedule: Transport (a
//     client-side http.RoundTripper spliced under lpserve.Client via
//     SetTransport) and Proxy (a server-side handler wrapper mounted in
//     front of an lpserve mux). Both can drop connections, deliver a
//     request and then sever the reply, duplicate POST deliveries, delay
//     responses past lease TTLs, answer 5xx, truncate bodies mid-stream,
//     and corrupt response bytes.
//   - CorruptFile: a store-level corruptor flipping bytes in a library
//     file's shard gzip streams, footer index, or trailer, to exercise
//     the open/decode error paths.
//
// Soak (soak.go) ties them together: it runs full cluster rounds under
// many seeded schedules and asserts the three safety invariants after
// every round — bit-equal estimate vs. an undisturbed local run, folded
// observations == positions done, and no leaked goroutines.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// Kind is one fault type a schedule can inject into an HTTP exchange.
type Kind int

const (
	// None passes the exchange through untouched.
	None Kind = iota
	// Drop severs the exchange before the server sees the request.
	Drop
	// DropAfter lets the server process the request, then severs the
	// reply — the client cannot tell this from Drop, so its retry
	// redelivers a request the server already handled. This is the fault
	// that flushes out missing idempotency.
	DropAfter
	// Dup delivers the request twice back to back and returns the first
	// response; the second delivery is the server's problem.
	Dup
	// Delay holds a completed response for Fault.Delay — long enough,
	// in the soak, to blow past a lease TTL.
	Delay
	// Err500 answers 503 without consulting the server.
	Err500
	// Truncate delivers only a prefix of the response body, then severs.
	Truncate
	// Corrupt damages the response body: JSON bodies get a poison first
	// byte (0x00 — never valid JSON, so corruption is always detectable
	// rather than a silent field flip), binary bodies get one byte
	// XOR-flipped at a schedule-chosen offset.
	Corrupt
)

var kindNames = [...]string{"none", "drop", "drop-after", "dup", "delay", "err500", "truncate", "corrupt"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Fault is one schedule decision for one exchange.
type Fault struct {
	Kind  Kind
	Delay time.Duration // Delay faults: how long to hold the response
	Rand  uint64        // deterministic randomness for offset choices
}

// Rates are per-class fault probabilities (each in [0,1]; their sum must
// not exceed 1 — the remainder is the no-fault probability).
type Rates struct {
	Drop      float64
	DropAfter float64
	Dup       float64
	Delay     float64
	Err500    float64
	Truncate  float64
	Corrupt   float64

	// DelayFor is the hold applied by Delay faults in this class.
	DelayFor time.Duration
}

// Request classes. Faults are scheduled per class so a seed exercises
// every endpoint deterministically regardless of how many requests other
// endpoints absorbed first.
const (
	ClassLeases    = "leases"     // POST /v1/leases
	ClassResults   = "results"    // POST /v1/results
	ClassRun       = "run"        // GET /v1/run
	ClassPoints    = "points"     // GET /v1/points
	ClassStat      = "stat"       // GET /v1/stat
	ClassShards    = "shards"     // GET /v1/shards
	ClassShardData = "shard-data" // GET /v1/shards/{id}
	ClassOther     = "other"
)

// ClassOf maps a request path to its schedule class.
func ClassOf(path string) string {
	switch {
	case path == "/v1/leases":
		return ClassLeases
	case path == "/v1/results":
		return ClassResults
	case path == "/v1/run":
		return ClassRun
	case path == "/v1/points":
		return ClassPoints
	case path == "/v1/stat":
		return ClassStat
	case path == "/v1/shards":
		return ClassShards
	case strings.HasPrefix(path, "/v1/shards/"):
		return ClassShardData
	default:
		return ClassOther
	}
}

// DefaultRates is the soak's standard fault mix: every failure family on
// every cluster endpoint, at rates low enough that retry budgets converge
// and a run still finishes. delay is the hold for Delay faults — pick it
// longer than the coordinator's lease TTL so delayed fetches turn into
// expired leases. /v1/stat and /v1/shards are left fault-free: workers
// never call them, and faulting the harness's own setup requests would
// only abort runs before any invariant is exercised.
func DefaultRates(delay time.Duration) map[string]Rates {
	return map[string]Rates{
		ClassLeases:    {Drop: 0.04, Err500: 0.04, Truncate: 0.015, Corrupt: 0.015},
		ClassResults:   {Drop: 0.04, DropAfter: 0.05, Dup: 0.05, Delay: 0.03, Err500: 0.04, DelayFor: delay},
		ClassRun:       {Drop: 0.04, Err500: 0.04, Corrupt: 0.015},
		ClassPoints:    {Drop: 0.03, Delay: 0.04, Err500: 0.03, Truncate: 0.05, Corrupt: 0.05, DelayFor: delay},
		ClassShardData: {Drop: 0.03, Delay: 0.04, Truncate: 0.05, Corrupt: 0.05, DelayFor: delay},
	}
}

// Schedule is a deterministic fault decision stream: decision n for class
// c is a pure function of (seed, c, n), so concurrent requests to
// different endpoints cannot perturb each other's sequences and a failing
// run replays from its seed.
type Schedule struct {
	seed  uint64
	rates map[string]Rates

	mu       sync.Mutex
	counts   map[string]uint64
	injected map[string]uint64 // "class/kind" -> count, for reports
	total    uint64
}

// NewSchedule builds a schedule from a seed and per-class rates (classes
// absent from the map fall back to rates[""], which defaults to
// fault-free).
func NewSchedule(seed uint64, rates map[string]Rates) *Schedule {
	return &Schedule{
		seed:     seed,
		rates:    rates,
		counts:   make(map[string]uint64),
		injected: make(map[string]uint64),
	}
}

// Seed returns the schedule's seed.
func (s *Schedule) Seed() uint64 { return s.seed }

// Next returns the fault decision for the class's next exchange.
func (s *Schedule) Next(class string) Fault {
	r, ok := s.rates[class]
	if !ok {
		r = s.rates[""]
	}
	s.mu.Lock()
	n := s.counts[class]
	s.counts[class] = n + 1
	s.mu.Unlock()

	draw := mix64(s.seed ^ classHash(class) ^ n*0x9E3779B97F4A7C15)
	u := float64(draw>>11) / (1 << 53)
	f := Fault{Kind: None, Rand: mix64(draw)}
	for _, c := range []struct {
		k Kind
		p float64
	}{
		{Drop, r.Drop}, {DropAfter, r.DropAfter}, {Dup, r.Dup}, {Delay, r.Delay},
		{Err500, r.Err500}, {Truncate, r.Truncate}, {Corrupt, r.Corrupt},
	} {
		if u < c.p {
			f.Kind = c.k
			break
		}
		u -= c.p
	}
	if f.Kind == Delay {
		f.Delay = r.DelayFor
		if f.Delay <= 0 {
			f.Delay = 100 * time.Millisecond
		}
	}
	if f.Kind != None {
		s.mu.Lock()
		s.injected[class+"/"+f.Kind.String()]++
		s.total++
		s.mu.Unlock()
	}
	return f
}

// Total returns how many faults the schedule has injected so far.
func (s *Schedule) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Injected returns a copy of the per-class/kind injection counts.
func (s *Schedule) Injected() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.injected))
	for k, v := range s.injected {
		out[k] = v
	}
	return out
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64,
// the standard cheap way to turn structured inputs into uniform draws.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func classHash(class string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(class))
	return h.Sum64()
}
