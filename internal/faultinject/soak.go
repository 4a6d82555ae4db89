package faultinject

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/sampling"
)

// SoakOptions configures one Soak sweep.
type SoakOptions struct {
	// Library is the path of the v2 library file to run over (required;
	// GenLibrary builds a suitable one).
	Library string
	// Seeds are the fault-schedule seeds to sweep. Each seed is one full
	// cluster run with its own coordinator, server, and worker fleet.
	Seeds []uint64
	// Mode is lpcluster.ModeAbsolute (default) or lpcluster.ModeMatched.
	Mode string
	// RelErr enables §6.1 online stopping; 0 runs the whole library.
	RelErr float64
	// Proxy injects faults server-side (the Proxy handler) instead of
	// client-side (the Transport RoundTripper).
	Proxy bool
	// Workers is the fleet size per run (default 3).
	Workers int
	// MaxWorkerRestarts bounds how many fatally-dead workers are
	// replaced per run (default 16). Fatal deaths are expected: corrupt
	// or truncated control-plane JSON is a protocol error, and protocol
	// errors kill a worker by design.
	MaxWorkerRestarts int
	// LeaseTTL is the coordinator lease TTL (default 200ms — short, so
	// Delay faults convert into expiry/reassignment, the path under
	// test).
	LeaseTTL time.Duration
	// RunTimeout bounds one seed's run (default 2 minutes).
	RunTimeout time.Duration
	// Rates overrides the fault mix (default DefaultRates(LeaseTTL*3/2)).
	Rates map[string]Rates
	// Log, when set, receives one line per seed.
	Log *slog.Logger
}

// SeedResult is one seed's outcome.
type SeedResult struct {
	Seed     uint64
	Faults   uint64 // faults the schedule injected during the run
	Restarts int    // fatally-dead workers replaced
	Expired  int    // leases lost to expiry/reassignment, summed over workers
	Err      error  // nil iff every invariant held
}

// Report aggregates a sweep.
type Report struct {
	Seeds    []SeedResult
	Faults   uint64
	Restarts int
	Failed   int
}

// baseline is the undisturbed local reference a cluster run must match.
type baseline struct {
	abs     *livepoint.RunResult
	matched *livepoint.MatchedResult
}

// Soak sweeps the seeds, running one full cluster round per seed under
// its fault schedule, and checks the three safety invariants after every
// round:
//
//  1. every run, whole-library or stopped, produces an estimate and a
//     point count bit-equal to the undisturbed local fold under the same
//     rule (livepoint.RunFile / RunMatchedFile) — no fault may change the
//     answer, only the turnaround;
//  2. observations accepted == positions done — nothing double-folded,
//     nothing lost;
//  3. every goroutine the run started is gone afterwards.
//
// It returns an error (alongside the full report) if any seed violated
// an invariant or failed to complete.
func Soak(ctx context.Context, opt SoakOptions) (*Report, error) {
	if opt.Library == "" {
		return nil, fmt.Errorf("faultinject: SoakOptions.Library is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = 3
	}
	if opt.MaxWorkerRestarts <= 0 {
		opt.MaxWorkerRestarts = 16
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 200 * time.Millisecond
		if raceEnabled {
			// Race instrumentation inflates per-lease processing past an
			// uninstrumented-build TTL on small machines; a TTL below the
			// processing time livelocks the fleet in expiry thrash (see
			// race_off.go). Delay faults scale with the TTL, so the
			// expiry/reassignment path stays exercised.
			opt.LeaseTTL = time.Second
		}
	}
	if opt.RunTimeout <= 0 {
		opt.RunTimeout = 2 * time.Minute
		if raceEnabled {
			opt.RunTimeout = 8 * time.Minute
		}
	}
	if opt.Rates == nil {
		opt.Rates = DefaultRates(opt.LeaseTTL * 3 / 2)
	}

	bl, err := localBaseline(opt)
	if err != nil {
		return nil, fmt.Errorf("faultinject: computing undisturbed baseline: %w", err)
	}

	rep := &Report{}
	for _, seed := range opt.Seeds {
		sr := runSeed(ctx, opt, bl, seed)
		rep.Seeds = append(rep.Seeds, sr)
		rep.Faults += sr.Faults
		rep.Restarts += sr.Restarts
		if sr.Err != nil {
			rep.Failed++
		}
		if opt.Log != nil {
			opt.Log.Info("soak seed done", "seed", seed, "faults", sr.Faults,
				"restarts", sr.Restarts, "expired", sr.Expired, "err", sr.Err)
		}
	}
	if rep.Failed > 0 {
		for _, sr := range rep.Seeds {
			if sr.Err != nil {
				return rep, fmt.Errorf("faultinject: %d/%d seeds failed; first: seed %#x: %w",
					rep.Failed, len(rep.Seeds), sr.Seed, sr.Err)
			}
		}
	}
	return rep, nil
}

// spec builds the cluster run spec for the sweep's mode.
func (o *SoakOptions) spec() lpcluster.RunSpec {
	spec := lpcluster.RunSpec{RelErr: o.RelErr}
	if o.Mode == lpcluster.ModeMatched {
		spec.Mode = lpcluster.ModeMatched
		spec.MemLat = 200
	}
	return spec
}

// localBaseline computes the undisturbed single-process reference.
func localBaseline(opt SoakOptions) (*baseline, error) {
	spec := opt.spec()
	cfgs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	bl := &baseline{}
	if spec.Mode == lpcluster.ModeMatched {
		bl.matched, err = livepoint.RunMatchedFile(opt.Library,
			livepoint.MatchedOpts{Base: cfgs[0], Exp: cfgs[1], Z: sampling.Z997, RelErr: opt.RelErr})
		return bl, err
	}
	bl.abs, err = livepoint.RunFile(opt.Library, livepoint.RunOpts{Cfg: cfgs[0], RelErr: opt.RelErr})
	return bl, err
}

// runSeed runs one seeded cluster round and checks the invariants.
func runSeed(ctx context.Context, opt SoakOptions, bl *baseline, seed uint64) SeedResult {
	sr := SeedResult{Seed: seed}
	gBase := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(ctx, opt.RunTimeout)
	defer cancel()

	st, err := lpstore.Open(opt.Library)
	if err != nil {
		sr.Err = err
		return sr
	}
	defer st.Close()

	reg := obs.NewRegistry()
	coord, err := lpcluster.NewCoordinator(st, opt.spec(),
		lpcluster.Options{LeasePoints: soakShardPoints, LeaseTTL: opt.LeaseTTL, Metrics: reg})
	if err != nil {
		sr.Err = err
		return sr
	}
	defer coord.Close()
	srv := lpserve.NewServerWithMetrics(st, obs.NewRegistry())
	coord.Mount(srv)

	sched := NewSchedule(seed, opt.Rates)
	var handler http.Handler = srv.Handler()
	if opt.Proxy {
		handler = &Proxy{Inner: handler, Sched: sched}
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	cl := lpserve.New(ts.URL)
	cl.Timeout = 2 * time.Second
	if raceEnabled {
		cl.Timeout = 10 * time.Second // must outlast race-inflated shard fetches
	}
	cl.Retry = lpserve.RetryPolicy{Max: 4, Base: 2 * time.Millisecond, Cap: 25 * time.Millisecond}
	cl.Metrics = obs.NewRegistry()
	tr := &http.Transport{}
	if opt.Proxy {
		cl.SetTransport(tr)
	} else {
		cl.SetTransport(&Transport{Base: tr, Sched: sched})
	}
	defer cl.CloseIdle()

	sr.Err = superviseWorkers(ctx, opt, coord, cl, &sr)
	sr.Faults = sched.Total()
	if sr.Err == nil {
		sr.Err = checkInvariants(opt, bl, coord, reg, st)
	}

	// Teardown before the leak check: server conns, client keep-alives,
	// store handles. The deferred closes above are idempotent.
	ts.Close()
	cl.CloseIdle()
	if leakErr := settleGoroutines(gBase, 3*time.Second); leakErr != nil && sr.Err == nil {
		sr.Err = leakErr
	}
	return sr
}

// superviseWorkers drives the fleet to run completion, replacing workers
// that die fatally (protocol errors are fatal by design) up to the
// restart budget.
func superviseWorkers(ctx context.Context, opt SoakOptions, coord *lpcluster.Coordinator, cl *lpserve.Client, sr *SeedResult) error {
	errCh := make(chan error, opt.Workers+opt.MaxWorkerRestarts)
	workers := make(chan *lpcluster.Worker, opt.Workers+opt.MaxWorkerRestarts)
	running := 0
	spawn := func(id string) {
		w := lpcluster.NewWorker(id, cl)
		w.ReconnectBase = 2 * time.Millisecond
		w.ReconnectCap = 25 * time.Millisecond
		running++
		go func() {
			err := w.Run(ctx)
			workers <- w
			errCh <- err
		}()
	}
	for i := 0; i < opt.Workers; i++ {
		spawn(fmt.Sprintf("w%d", i))
	}
	var lastErr error
	for running > 0 {
		err := <-errCh
		w := <-workers
		running--
		sr.Expired += w.Expired
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return fmt.Errorf("run timed out: %w", ctx.Err())
		}
		if _, finished := coord.Final(); finished {
			continue // late fatal after the run sealed: harmless
		}
		lastErr = err
		if sr.Restarts < opt.MaxWorkerRestarts {
			sr.Restarts++
			spawn(fmt.Sprintf("w-r%d", sr.Restarts))
		}
	}
	if _, finished := coord.Final(); !finished {
		return fmt.Errorf("run did not finish (restart budget %d exhausted; last worker error: %w)",
			opt.MaxWorkerRestarts, lastErr)
	}
	return nil
}

// checkInvariants asserts the estimate and accounting invariants after a
// finished run.
func checkInvariants(opt SoakOptions, bl *baseline, coord *lpcluster.Coordinator, reg *obs.Registry, st *lpstore.Store) error {
	res, ok := coord.Final()
	if !ok {
		return fmt.Errorf("coordinator not finished")
	}

	// Invariant 2: observations accepted == positions done (and, unless
	// the run stopped, == folded). A double-fold or a lost observation
	// shows up here even when the estimate happens to survive numerically.
	folded := reg.Counter("lpcluster_points_folded_total", "").Value()
	done := coord.State().Done
	if folded != uint64(done) {
		return fmt.Errorf("folded %d observations for %d done positions (double-fold or loss)", folded, done)
	}
	if !res.Stopped && folded != uint64(res.Processed) {
		return fmt.Errorf("folded %d but final result processed %d", folded, res.Processed)
	}

	// Invariant 1: bit-equality vs. the undisturbed local run; a stopped
	// run also meets the statistical contract, and any other covers the
	// whole library.
	if res.Stopped {
		if opt.Mode == lpcluster.ModeMatched {
			if !res.MP.DeltaSatisfied(sampling.Z997, opt.RelErr) && !res.StoppedNoImpact {
				return fmt.Errorf("stopped without satisfying the target: n=%d", res.MP.N())
			}
		} else if !res.Est.Satisfied(sampling.Z997, opt.RelErr) {
			return fmt.Errorf("stopped without satisfying the target: n=%d relCI=%.4f",
				res.Est.N(), res.Est.RelCI(sampling.Z997))
		}
		if res.Processed < sampling.MinSampleSize {
			return fmt.Errorf("stopped below the CLT floor: n=%d", res.Processed)
		}
	} else if res.Processed != st.Count() {
		return fmt.Errorf("whole-library run processed %d of %d points", res.Processed, st.Count())
	}
	if opt.Mode == lpcluster.ModeMatched {
		if !reflect.DeepEqual(res.MP, bl.matched.MP) {
			return fmt.Errorf("matched pair not bit-equal to local: Δ %.12f vs %.12f",
				res.MP.MeanDelta(), bl.matched.MP.MeanDelta())
		}
		if res.Processed != bl.matched.Processed {
			return fmt.Errorf("processed %d pairs, local %d", res.Processed, bl.matched.Processed)
		}
		return nil
	}
	if !reflect.DeepEqual(res.Est, bl.abs.Est) || res.Processed != bl.abs.Processed {
		return fmt.Errorf("estimate not bit-equal to local: %.12f (n=%d) vs %.12f (n=%d)",
			res.Est.Mean(), res.Est.N(), bl.abs.Est.Mean(), bl.abs.Est.N())
	}
	// A stopped run's counters are its accepted partials'.
	if res.Stopped {
		return nil
	}
	if res.UnknownFetches != bl.abs.UnknownFetches || res.UnknownLoads != bl.abs.UnknownLoads ||
		res.CaptureErrors != bl.abs.CaptureErrors {
		return fmt.Errorf("wrong-path counters diverged: %d/%d/%d vs %d/%d/%d",
			res.UnknownFetches, res.UnknownLoads, res.CaptureErrors,
			bl.abs.UnknownFetches, bl.abs.UnknownLoads, bl.abs.CaptureErrors)
	}
	return nil
}

// settleGoroutines waits for the goroutine count to return to the
// pre-run baseline. Invariant 3: a fault must never strand a goroutine —
// a leaked worker or connection per fault would sink a long-lived fleet.
func settleGoroutines(base int, within time.Duration) error {
	deadline := time.Now().Add(within)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return fmt.Errorf("goroutine leak: %d before run, %d after settle:\n%s", base, n, buf)
	}
	return nil
}
