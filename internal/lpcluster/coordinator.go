package lpcluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/sampling"
)

// Options tunes coordinator scheduling.
type Options struct {
	// LeasePoints is the range-lease size (default 64, matching the
	// client's ranged-fetch batch; clamped to lpserve.MaxBatchPoints so
	// a lease never exceeds what one /v1/points response may carry).
	LeasePoints int
	// LeaseTTL is how long a worker has to post a lease's result before
	// the points are reassigned (default 60s).
	LeaseTTL time.Duration
	// WaitHint is the retry delay suggested to workers when all
	// outstanding work is leased (default 200ms).
	WaitHint time.Duration
	// Metrics receives the coordinator's lease/progress series (default
	// obs.Default).
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.LeasePoints <= 0 {
		o.LeasePoints = 64
	}
	if o.LeasePoints > lpserve.MaxBatchPoints {
		// Workers fetch ranges in MaxBatchPoints chunks, so larger
		// leases would work — but they also ride one TTL, and a lease
		// the server cannot answer in one response buys nothing.
		o.LeasePoints = lpserve.MaxBatchPoints
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 60 * time.Second
	}
	if o.WaitHint <= 0 {
		o.WaitHint = 200 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default
	}
	return o
}

// Result rejections, surfaced over HTTP as 410, 409, and 503.
var (
	// ErrLeaseGone rejects a result for an unknown or reassigned lease —
	// the worker blew its deadline and the points now belong to a
	// replacement lease — or for a lease issued by a previous coordinator
	// incarnation (stale epoch). Folding either copy would double-count.
	ErrLeaseGone = errors.New("lpcluster: lease expired, reassigned, or from a previous run epoch")
	// ErrDuplicate rejects a second result for a completed lease.
	ErrDuplicate = errors.New("lpcluster: duplicate result for completed lease")
	// ErrJournal rejects a result whose write-ahead journal append
	// failed: the fold is refused rather than left unrecoverable. Served
	// as 503, which workers retry.
	ErrJournal = errors.New("lpcluster: journal append failed")
)

// ClusterResult is the folded outcome of a cluster run.
type ClusterResult struct {
	Est             sampling.Estimate    // absolute mode
	MP              sampling.MatchedPair // matched mode
	Processed       int
	Stopped         bool // §6.1 rule fired before exhausting the library
	StoppedNoImpact bool
	Reassigned      int // leases reissued after expiry

	Elapsed  time.Duration // first lease issued -> run finished
	LoadTime time.Duration // summed across workers
	SimTime  time.Duration

	UnknownFetches uint64
	UnknownLoads   uint64
	CaptureErrors  uint64
}

// Coordinator owns one cluster sampling run over a live-point store. It
// is driven entirely by worker requests: Acquire hands out leases
// (reclaiming expired ones first), Result folds posted partials and
// applies the fleet-wide stopping rule. All methods are safe for
// concurrent use: one mutex covers the lease table (who holds which points
// until when) and the fold (what the points came to).
type Coordinator struct {
	st   *lpstore.Store
	spec RunSpec
	opt  Options

	// jr, when non-nil, is the run's write-ahead journal: the spec is
	// recorded at creation and every accepted result is appended (and
	// fsynced) before it is folded, so a killed coordinator resumes with
	// a bit-equal estimate. epoch counts incarnations; leases carry it
	// and stale-epoch results are rejected (ErrLeaseGone).
	jr    *Journal
	epoch uint64

	mu       sync.Mutex
	leases   *leaseTable
	fold     *fold
	start    time.Time     // this incarnation's first lease; zero until then
	elapsed  time.Duration // start to finish
	finished bool
	doneCh   chan struct{}

	// Counters are resolved once at construction so hot paths touch only
	// atomics while holding mu (registry lookups take the registry lock,
	// which scrapes also hold — never nest the two).
	mLeasesIssued, mReassigned, mPointsFolded *obs.Counter
	mRejGone, mRejDuplicate, mRejMismatch     *obs.Counter
	mRejEpoch, mStragglers                    *obs.Counter
}

// NewCoordinator validates the spec against the store and returns an idle
// coordinator; the run starts when the first worker asks for a lease.
func NewCoordinator(st *lpstore.Store, spec RunSpec, opt Options) (*Coordinator, error) {
	spec = spec.withDefaults()
	if _, _, err := spec.Configs(); err != nil {
		return nil, err
	}
	rule := spec.Rule()
	if err := rule.Check(st.Meta().Shuffled); err != nil {
		return nil, fmt.Errorf("lpcluster: %w", err)
	}
	opt = opt.withDefaults()
	leases, err := newLeaseTable(st, rule, opt)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		st:     st,
		spec:   spec,
		opt:    opt,
		leases: leases,
		fold:   newFold(st.Count(), spec.Mode == ModeMatched, rule),
		doneCh: make(chan struct{}),
	}
	c.registerMetrics()
	return c, nil
}

// registerMetrics wires the coordinator's gauges into its registry.
// Counters are resolved at their call sites; the scrape-time gauge
// callbacks read coordinator state under its lock (and reclaim expired
// leases first, so a scrape never shows a crashed worker as active).
// Re-registering replaces the previous run's callbacks, so the registry
// always reflects the newest coordinator in the process.
func (c *Coordinator) registerMetrics() {
	reg := c.opt.Metrics
	c.mLeasesIssued = reg.Counter("lpcluster_leases_issued_total", "Leases handed to workers, including reissues.")
	c.mReassigned = reg.Counter("lpcluster_leases_reassigned_total", "Leases revoked after TTL expiry and queued for reassignment.")
	c.mPointsFolded = reg.Counter("lpcluster_points_folded_total", "Per-point observations folded into the fleet-wide estimate.")
	c.mRejGone = reg.Counter("lpcluster_results_rejected_total", "Posted results refused, by reason.", "reason", "gone")
	c.mRejDuplicate = reg.Counter("lpcluster_results_rejected_total", "Posted results refused, by reason.", "reason", "duplicate")
	c.mRejMismatch = reg.Counter("lpcluster_results_rejected_total", "Posted results refused, by reason.", "reason", "mismatch")
	c.mRejEpoch = reg.Counter("lpcluster_results_rejected_total", "Posted results refused, by reason.", "reason", "epoch")
	c.mStragglers = reg.Counter("lpcluster_straggler_results_total", "Results that arrived after the run finished (acknowledged, not folded).")
	reg.Gauge("lpcluster_run_epoch", "Coordinator incarnation (0 = never restarted; bumps on every journal resume).").Set(float64(c.epoch))
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.reclaim()
			return f()
		}
	}
	reg.GaugeFunc("lpcluster_leases_active", "Leases issued and not yet completed, expired, or revoked.",
		locked(func() float64 { return float64(c.leases.active) }))
	reg.GaugeFunc("lpcluster_leases_pending", "Reclaimed leases awaiting reassignment.",
		locked(func() float64 { return float64(c.leases.pending) }))
	reg.GaugeFunc("lpcluster_points_done", "Read-order positions with a folded result.",
		locked(func() float64 { return float64(c.fold.res.Processed) }))
	reg.GaugeFunc("lpcluster_progress_relci", "Current relative CI half-width of the fleet-wide estimate (0 until the fold starts).",
		locked(func() float64 { return c.fold.relCI() }))
	reg.GaugeFunc("lpcluster_run_finished", "1 once the run has finished, else 0.",
		locked(func() float64 {
			if c.finished {
				return 1
			}
			return 0
		}))
	reg.Gauge("lpcluster_progress_target", "Online stopping target (relative error); 0 for whole-library runs.").Set(c.spec.RelErr)
	reg.Gauge("lpcluster_points_total", "Read-order positions in the library.").Set(float64(c.st.Count()))
}

// Spec returns the run specification (defaults resolved).
func (c *Coordinator) Spec() RunSpec { return c.spec }

// Epoch returns the coordinator's incarnation number: 0 for a fresh run,
// incremented on every journal resume.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Done returns a channel closed when the run finishes.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Close releases the coordinator's journal, if any. The run itself needs
// no teardown.
func (c *Coordinator) Close() error { return c.jr.Close() }

// reclaim queues expired leases' points for reassignment. After the run
// finishes nothing is reclaimed: outstanding leases resolve through the
// straggler path in Result instead.
func (c *Coordinator) reclaim() {
	if !c.finished {
		c.mReassigned.Add(uint64(c.leases.reclaim()))
	}
}

// Acquire hands worker its next lease: a reclaimed lease first, then
// fresh work (shard-major for whole-library runs, read-order ranges while
// a stopping rule is active). With everything leased but unfinished it
// returns a wait hint; with the run finished it returns done.
func (c *Coordinator) Acquire(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return LeaseResponse{Done: true}
	}
	c.reclaim()
	if c.start.IsZero() {
		c.start = c.leases.now()
	}
	l := c.leases.issue()
	if l == nil {
		return LeaseResponse{Wait: true, WaitMillis: c.opt.WaitHint.Milliseconds()}
	}
	c.mLeasesIssued.Inc()
	return LeaseResponse{Lease: &Lease{
		ID:        l.id,
		Epoch:     c.epoch,
		Coverage:  l.Coverage,
		Points:    l.Count,
		TTLMillis: c.opt.LeaseTTL.Milliseconds(),
	}}
}

// Result folds one completed lease's partial statistics. Partials fold in
// completion order; after each fold the §6.1 stopping rule is evaluated
// across everything the fleet has produced. Results for revoked leases —
// or leases issued by a previous coordinator incarnation (stale epoch) —
// are rejected with ErrLeaseGone (the replacement lease owns those points
// now), duplicates with ErrDuplicate. On a journaled run the result is
// appended to the write-ahead journal and fsynced before any state
// changes; an append failure refuses the fold (ErrJournal, 503) so the
// worker retries rather than the journal silently diverging.
func (c *Coordinator) Result(res *Result) (ResultResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res.Epoch != c.epoch {
		// A lease from a previous incarnation: its points were re-leased
		// under the current epoch (or already refolded from the journal),
		// and its lease id may even collide with a fresh lease's — the
		// epoch check, not the id lookup, is what prevents the stale copy
		// from double-counting.
		c.mRejEpoch.Inc()
		return ResultResponse{}, ErrLeaseGone
	}
	l, err := c.leases.outstanding(res.LeaseID)
	if err != nil {
		if err == ErrDuplicate {
			c.mRejDuplicate.Inc()
		} else {
			c.mRejGone.Inc()
		}
		return ResultResponse{}, err
	}
	if c.finished {
		// Straggler after the stopping rule fired: nothing to fold, but
		// the lease is resolved — it must leave the active count and a
		// second post must draw the usual 409, exactly as if the result
		// had landed in time.
		c.leases.complete(l)
		c.mStragglers.Inc()
		return ResultResponse{Accepted: false, Done: true}, nil
	}
	positions, err := l.positions(c.st)
	if err == nil {
		err = res.check(c.fold.matched, len(positions))
	}
	if err != nil {
		c.mRejMismatch.Inc()
		return ResultResponse{}, fmt.Errorf("lpcluster: lease %d: %w", res.LeaseID, err)
	}

	// Write-ahead: the accepted result reaches disk before it reaches the
	// estimate, so a crash at any later instant replays this fold.
	if c.jr != nil {
		rec := journalRecord{T: recResult, Coverage: l.Coverage, Partial: res.Partial}
		if err := c.jr.append(rec); err != nil {
			return ResultResponse{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	c.leases.complete(l)
	c.accept(positions, &res.Partial)
	return ResultResponse{Accepted: true, Done: c.finished}, nil
}

// accept advances the run by one checked partial and finishes it when the
// fold says it is over. Both the live Result path and journal replay change
// the estimate through exactly this code, so a resumed coordinator's floats
// are the ones the crashed incarnation would have had.
func (c *Coordinator) accept(positions []int, p *Partial) {
	c.mPointsFolded.Add(uint64(len(positions)))
	if c.fold.add(positions, p) {
		c.finish()
	}
}

// finish seals the run.
func (c *Coordinator) finish() {
	c.finished = true
	if !c.start.IsZero() {
		// A run finished during journal replay never issued a lease in
		// this incarnation; its wall clock stays zero.
		c.elapsed = c.leases.now().Sub(c.start)
	}
	c.fold.seal()
	close(c.doneCh)
}

// Final returns the folded run result once the run has finished.
func (c *Coordinator) Final() (*ClusterResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished {
		return nil, false
	}
	res := c.fold.res
	res.Elapsed, res.Reassigned = c.elapsed, c.leases.reassigned
	return &res, true
}

// State snapshots the run for GET /v1/run. Expired leases are reclaimed
// first, so ActiveLeases never counts a crashed worker whose points are
// already queued for reassignment.
func (c *Coordinator) State() RunState {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaim()
	st := RunState{
		Spec:          c.spec,
		Points:        c.st.Count(),
		Phase:         PhaseRunning,
		Epoch:         c.epoch,
		ActiveLeases:  c.leases.active,
		PendingLeases: c.leases.pending,
		Reassigned:    c.leases.reassigned,
		TargetRelErr:  c.spec.RelErr,
	}
	c.fold.render(&st)
	if c.finished {
		st.Phase = PhaseDone
		st.ElapsedMillis = c.elapsed.Milliseconds()
		return st
	}
	if c.start.IsZero() {
		return st
	}
	elapsed := c.leases.now().Sub(c.start)
	st.ElapsedMillis = elapsed.Milliseconds()
	if elapsed > 0 && st.Done > 0 {
		st.PointsPerSec = float64(st.Done) / elapsed.Seconds()
		// ETA is only honest for whole-library runs: a stopping rule
		// may fire at any fold, so its finish time is unknowable.
		if !c.fold.rule.Active() {
			st.EtaMillis = int64(float64(st.Points-st.Done) / st.PointsPerSec * 1000)
		}
	}
	return st
}
