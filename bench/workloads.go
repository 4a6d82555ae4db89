package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// The five workloads. The names, and the reasons in BENCHMARK.json and
// README.md, are cited verbatim by later issues.
const (
	libSerialGzip    = "lib_serial_gzip"
	libPar2Mcf       = "lib_par2_mcf"
	serverStopGcc    = "server_stop_reshuf_gcc"
	cluster2wGzip    = "cluster_2w_gzip"
	matchedSerialGcc = "matched_serial_gcc"
)

type workloadDef struct {
	name  string
	bench string
	// scale is the library's length scale. The stopping workload needs
	// syn.gcc's nominal length for a ±3 % target to be reachable at all,
	// and the cluster needs enough shards to lease; the other whole-library
	// workloads run at half length, so that a run fits more, shorter passes
	// into its time cap.
	scale float64
	// passes is the frozen count of timed passes: fixed work, so every
	// count of a run repeats exactly. Sized to some 10 s of timed work on
	// the builder's 2-core box, except that the stopping workload's four
	// passes, the fewest allowed, take 23 s. The counts are also in
	// BENCHMARK.json, at the end of each workload's reason.
	passes int
}

var workloads = []workloadDef{
	{libSerialGzip, "syn.gzip", 1.0, 6},
	{libPar2Mcf, "syn.mcf", 0.5, 12},
	{serverStopGcc, "syn.gcc", 1.0, 4},
	{cluster2wGzip, "syn.gzip", 1.0, 8},
	{matchedSerialGcc, "syn.gcc", 0.5, 5},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// stopShare places the server workload's stopping point. The target handed
// to the runner is the tightest ±CI (at 99.7 %) that any prefix of the
// first stopShare of the reshuffled read order reaches — ±3.0 % on syn.gcc
// at the default seed, the paper's target — so the rule first fires at
// that prefix, some three quarters of the way in, whatever the seed. A
// fixed ±3 % is out of reach of some seeds' libraries and fires anywhere
// between 350 and 820 points on the others (a stopping rule's first
// passage is that noisy), and time_to_estimate_s would then measure the
// seed and not the system.
const stopShare = 0.75

// env is one workload set up and ready to run passes.
type env struct {
	def  workloadDef
	cfg  uarch.Config
	dir  string
	lib  *library
	reg  *obs.Registry
	wire *countingTransport

	// want is the estimate a correct pass returns: the read-order fold of
	// the reference CPIs over the positions the pass must cover.
	want sampling.Estimate

	stopRelErr float64 // server_stop_reshuf_gcc: the stopping target

	// The index-reshuffled copy of the library, once made.
	reshufPath string
	shuffleDur time.Duration

	// server_stop_reshuf_gcc: the served store and its listener.
	st *lpstore.Store
	ts *httptest.Server
}

// setup does everything setup_s charges for: build the library and its
// reference, and for the server workload reshuffle, open and serve it.
func setup(def workloadDef, seed int64, scale float64, dir string) (*env, error) {
	e := &env{def: def, cfg: uarch.Config8Way(), dir: dir, reg: obs.NewRegistry(), wire: newCountingTransport()}
	var err error
	e.lib, err = buildLibrary(def.bench, def.scale*scale, seed, e.cfg, filepath.Join(dir, def.bench+".lplib"))
	if err != nil {
		return nil, err
	}
	order := seq(e.lib.Points)
	if def.name == serverStopGcc {
		if err := e.reshuffle(seed); err != nil {
			return nil, err
		}
		if e.st, err = lpstore.Open(e.reshufPath); err != nil {
			return nil, err
		}
		e.ts = httptest.NewServer(lpserve.NewServerWithMetrics(e.st, e.reg).Handler())
		// The creation shuffle made physical id i the point at creation
		// read position i, so Order() indexes the reference directly. A
		// correct pass stops at the first prefix that meets the target:
		// the first one to reach the minimum.
		order = e.st.Order()
		// A library too short for any prefix to qualify keeps target 0:
		// it is read to the end, and the check reports the target unmet.
		best, stop := math.Inf(1), len(order)
		var est sampling.Estimate
		for n, p := range order[:int(stopShare*float64(len(order)))] {
			est.Add(e.lib.ref[p])
			if ci := est.RelCI(sampling.Z997); est.N() >= sampling.MinSampleSize && ci < best {
				best, stop = ci, n+1
				e.stopRelErr = ci
			}
		}
		order = order[:stop]
	}
	e.want = foldRef(e.lib.ref, order)
	return e, nil
}

// reshuffle makes the index-reshuffled copy of the library if it does not
// exist yet.
func (e *env) reshuffle(seed int64) error {
	if e.reshufPath != "" {
		return nil
	}
	path := filepath.Join(e.dir, "reshuf.lplib")
	d, err := reshuffledCopy(e.lib.path, path, seed+1)
	if err != nil {
		return err
	}
	e.reshufPath, e.shuffleDur = path, d
	return nil
}

func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.st != nil {
		e.st.Close()
	}
	e.wire.CloseIdleConnections()
}

// passOut is what one pass returned, reduced to what the checks and the
// metrics need.
type passOut struct {
	dur           time.Duration // opening the source or dialling → estimate
	points        int
	est           sampling.Estimate
	captureErrors uint64
	pairs         int // matched_serial_gcc
	cluster       *lpcluster.ClusterResult
}

// warmupPoints caps the stopping workload's warm-up pass at two ranged
// batches: enough to open the connection and grow the heap and the
// pools, at a fifth of the cost of a full pass.
const warmupPoints = 128

// pass runs the workload once through the repository's public entry
// points.
func (e *env) pass(warmup bool) (passOut, error) {
	switch e.def.name {
	case libSerialGzip, libPar2Mcf:
		parallel := 1
		if e.def.name == libPar2Mcf {
			parallel = 2
		}
		t0 := time.Now()
		res, err := livepoint.RunFile(e.lib.path, livepoint.RunOpts{Cfg: e.cfg, Parallel: parallel})
		if err != nil {
			return passOut{}, err
		}
		return passOut{dur: time.Since(t0), points: res.Processed, est: res.Est, captureErrors: res.CaptureErrors}, nil

	case serverStopGcc:
		t0 := time.Now()
		cl, err := e.dial(e.ts.URL)
		if err != nil {
			return passOut{}, err
		}
		opts := livepoint.RunOpts{Cfg: e.cfg, Z: sampling.Z997, RelErr: e.stopRelErr}
		if warmup {
			opts.MaxPoints = warmupPoints
		}
		src := cl.Source()
		res, err := livepoint.RunSource(src, opts)
		src.Close()
		if err != nil {
			return passOut{}, err
		}
		return passOut{dur: time.Since(t0), points: res.Processed, est: res.Est, captureErrors: res.CaptureErrors}, nil

	case cluster2wGzip:
		return e.clusterPass()

	case matchedSerialGcc:
		exp := e.cfg
		exp.Name = "experimental"
		exp.Hier.MemLat = 150
		t0 := time.Now()
		res, err := livepoint.RunMatchedFile(e.lib.path, livepoint.MatchedOpts{Base: e.cfg, Exp: exp, Z: sampling.Z997})
		if err != nil {
			return passOut{}, err
		}
		return passOut{dur: time.Since(t0), points: res.Processed, est: res.MP.Base, pairs: res.MP.N()}, nil
	}
	return passOut{}, fmt.Errorf("no such workload %q", e.def.name)
}

// dial connects a client that counts its wire traffic and keeps its
// counters in the benchmark's private registry.
func (e *env) dial(url string) (*lpserve.Client, error) {
	cl := lpserve.New(url)
	cl.SetTransport(e.wire)
	cl.Metrics = e.reg
	if err := cl.Refresh(context.Background()); err != nil {
		return nil, err
	}
	return cl, nil
}

// clusterPass is one whole-library cluster run: a fresh journaled
// coordinator mounted on a server over the library (untimed — a run is
// one-shot, so every pass needs its own), then, timed, two in-process
// workers sharing one client until the coordinator has its estimate.
func (e *env) clusterPass() (passOut, error) {
	st, err := lpstore.Open(e.lib.path)
	if err != nil {
		return passOut{}, err
	}
	defer st.Close()
	journal := filepath.Join(e.dir, "run.waj") // passes are sequential: one name, removed after each
	defer os.Remove(journal)
	coord, err := lpcluster.NewJournaledCoordinator(st, lpcluster.RunSpec{}, lpcluster.Options{Metrics: e.reg}, journal)
	if err != nil {
		return passOut{}, err
	}
	defer coord.Close()
	srv := lpserve.NewServerWithMetrics(st, e.reg)
	coord.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t0 := time.Now()
	cl, err := e.dial(ts.URL)
	if err != nil {
		return passOut{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = lpcluster.NewWorker(fmt.Sprintf("bench-%d", w), cl).Run(ctx)
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	// The estimate exists once the coordinator is done; a worker sleeping
	// out a wait hint returns later, off the clock. If the workers return
	// first the run has failed and their errors say why.
	select {
	case <-coord.Done():
	case <-workersDone:
	}
	dur := time.Since(t0)
	<-workersDone
	cl.CloseIdle()
	if err := errors.Join(errs...); err != nil {
		return passOut{}, err
	}
	res, ok := coord.Final()
	if !ok {
		return passOut{}, errors.New("cluster run did not finish")
	}
	return passOut{dur: dur, points: res.Processed, est: res.Est, captureErrors: res.CaptureErrors, cluster: res}, nil
}

// check is the correctness gate behind the failed count: a pass that
// does not reproduce the reference fold counts all its points as failed.
func (e *env) check(o passOut) error {
	if o.captureErrors != 0 {
		return fmt.Errorf("%d capture errors", o.captureErrors)
	}
	if o.points != e.want.N() || o.est.N() != e.want.N() {
		return fmt.Errorf("folded %d points (estimate n=%d), want %d", o.points, o.est.N(), e.want.N())
	}
	if e.def.name == libPar2Mcf {
		// Completion-order fold: same observations, different float order.
		if relDiff(o.est.Mean(), e.want.Mean()) > 1e-12 || relDiff(o.est.Var(), e.want.Var()) > 1e-9 {
			return fmt.Errorf("estimate mean=%v var=%v, want %v %v to 1e-12", o.est.Mean(), o.est.Var(), e.want.Mean(), e.want.Var())
		}
	} else if o.est.Mean() != e.want.Mean() || o.est.Var() != e.want.Var() {
		return fmt.Errorf("estimate mean=%v var=%v not bit-equal to the reference fold %v %v", o.est.Mean(), o.est.Var(), e.want.Mean(), e.want.Var())
	}
	switch e.def.name {
	case serverStopGcc:
		if !o.est.Satisfied(sampling.Z997, e.stopRelErr) || o.points < sampling.MinSampleSize {
			return fmt.Errorf("stopped at n=%d with ±%.2f%%, target ±%.2f%% not met", o.points, 100*o.est.RelCI(sampling.Z997), 100*e.stopRelErr)
		}
	case matchedSerialGcc:
		if o.pairs != e.lib.Points {
			return fmt.Errorf("%d pairs, want %d", o.pairs, e.lib.Points)
		}
	case cluster2wGzip:
		if o.cluster.Reassigned != 0 {
			return fmt.Errorf("%d leases reassigned on a fault-free run", o.cluster.Reassigned)
		}
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// countingTransport counts requests and response-body bytes under an
// lpserve.Client (installed with Client.SetTransport).
type countingTransport struct {
	base     *http.Transport
	requests atomic.Int64
	bytes    atomic.Int64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
