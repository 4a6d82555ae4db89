package lpcluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livepoints/internal/asn1der"
	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// testLibrary lazily builds one small real (simulatable) shuffled v2
// library shared by all cluster tests; creation runs a full functional
// pass, so it happens once per test process.
var (
	libOnce sync.Once
	libPath string
	libErr  error
)

func testLibrary(t *testing.T) string {
	t.Helper()
	libOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lpcluster-test")
		if err != nil {
			libErr = err
			return
		}
		// The temp dir leaks for the process lifetime; tests share it.
		cfg := uarch.Config8Way()
		spec, err := prog.ByName("syn.gzip")
		if err != nil {
			libErr = err
			return
		}
		p := prog.Generate(spec, 0.01)
		benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
		if err != nil {
			libErr = err
			return
		}
		design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 2, 1)
		if err != nil {
			libErr = err
			return
		}
		opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
		var blobs [][]byte
		err = livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
			b, _ := livepoint.Encode(lp)
			blobs = append(blobs, b)
			return nil
		})
		if err != nil {
			libErr = err
			return
		}
		rng := rand.New(rand.NewSource(0x5EED))
		rng.Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
		meta := livepoint.Meta{Benchmark: "syn.gzip", UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
		libPath = filepath.Join(dir, "lib.lplib")
		_, libErr = lpstore.Write(libPath, meta, blobs, lpstore.WriteOpts{ShardPoints: 5})
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return libPath
}

// startCluster opens the library, mounts a coordinator on an lpserve
// server, and dials a client against it.
func startCluster(t *testing.T, spec RunSpec, opt Options) (*Coordinator, *lpserve.Client) {
	t.Helper()
	return startClusterOn(t, testLibrary(t), spec, opt)
}

// startClusterOn is startCluster over the library at lib.
func startClusterOn(t *testing.T, lib string, spec RunSpec, opt Options) (*Coordinator, *lpserve.Client) {
	t.Helper()
	st, err := lpstore.Open(lib)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	coord, err := NewCoordinator(st, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := lpserve.NewServer(st)
	coord.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl, err := lpserve.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return coord, cl
}

// issuedKinds counts the leases the coordinator has issued, by kind.
func issuedKinds(c *Coordinator) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	kinds := make(map[string]int)
	for _, l := range c.leases.byID {
		kinds[l.Kind]++
	}
	return kinds
}

// fakeClock is the time a test gives a lease table: it moves only when the
// test advances it, so a lease expires on the line that says so and on no
// other, however slow the machine.
type fakeClock struct{ ns atomic.Int64 }

func (k *fakeClock) now() time.Time          { return time.Unix(1_000_000, k.ns.Load()) }
func (k *fakeClock) advance(d time.Duration) { k.ns.Add(int64(d)) }

// withFakeClock puts c's leases on a fake clock.
func withFakeClock(c *Coordinator) *fakeClock {
	clock := new(fakeClock)
	c.mu.Lock()
	c.leases.now = clock.now
	c.mu.Unlock()
	return clock
}

// runWorkers drives n concurrent in-process workers to completion.
func runWorkers(t *testing.T, cl *lpserve.Client, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		w := NewWorker(string(rune('a'+i)), cl)
		go func() { errs <- w.Run(ctx) }()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterParity is the subsystem's acceptance check: a whole-library
// cluster run (coordinator + 2 workers over localhost HTTP) must produce
// a bit-equal estimate to the local serial RunFile path.
func TestClusterParity(t *testing.T) {
	lib := testLibrary(t)
	local, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: uarch.Config8Way()})
	if err != nil {
		t.Fatal(err)
	}
	if local.Processed < 2*sampling.MinSampleSize {
		t.Fatalf("test library too small: %d points", local.Processed)
	}

	coord, cl := startCluster(t, RunSpec{}, Options{})
	runWorkers(t, cl, 2)

	res, ok := coord.Final()
	if !ok {
		t.Fatal("run not finished after workers exited")
	}
	if res.Processed != local.Processed {
		t.Fatalf("cluster processed %d points, local %d", res.Processed, local.Processed)
	}
	if !reflect.DeepEqual(res.Est, local.Est) {
		t.Fatalf("cluster estimate not bit-equal to local: %.12f vs %.12f", res.Est.Mean(), local.Est.Mean())
	}
	if res.UnknownFetches != local.UnknownFetches || res.UnknownLoads != local.UnknownLoads ||
		res.CaptureErrors != local.CaptureErrors {
		t.Fatalf("counter mismatch: cluster %d/%d/%d, local %d/%d/%d",
			res.UnknownFetches, res.UnknownLoads, res.CaptureErrors,
			local.UnknownFetches, local.UnknownLoads, local.CaptureErrors)
	}
	if res.Stopped {
		t.Fatal("whole-library run reported a stopping-rule stop")
	}
	// Whole-library runs must have leased shard-major (raw-gzip passthrough).
	if kinds := issuedKinds(coord); kinds[LeaseShard] == 0 || kinds[LeaseRange] != 0 {
		t.Fatalf("whole-library run issued leases %v, want shard leases only", kinds)
	}
}

// TestClusterParityReshuffled: a whole-library fleet run over an
// index-reshuffled copy of the test library, whose shards are scattered
// over the read order, is bit-equal to RunFile on that copy. A shard
// lease's points arrive in storage order, and the coordinator puts each
// CPI at its read position through ShardReadPositions.
func TestClusterParityReshuffled(t *testing.T) {
	data, err := os.ReadFile(testLibrary(t))
	if err != nil {
		t.Fatal(err)
	}
	lib := filepath.Join(t.TempDir(), "reshuffled.lplib")
	if err := os.WriteFile(lib, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := lpstore.Shuffle(lib, 11); err != nil {
		t.Fatal(err)
	}
	local, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: uarch.Config8Way()})
	if err != nil {
		t.Fatal(err)
	}

	coord, cl := startClusterOn(t, lib, RunSpec{}, Options{})
	scattered := false
	for s := 0; s < coord.st.NumShards(); s++ {
		spans, err := coord.st.ShardReadOrder(s)
		if err != nil {
			t.Fatal(err)
		}
		scattered = scattered || !slices.IsSortedFunc(spans, func(a, b lpstore.Span) int { return int(a.Off - b.Off) })
	}
	if !scattered {
		t.Fatal("every shard of the reshuffled library is read in storage order; the test shows nothing")
	}
	runWorkers(t, cl, 2)

	res, ok := coord.Final()
	if !ok {
		t.Fatal("run not finished after workers exited")
	}
	if res.Processed != local.Processed || !reflect.DeepEqual(res.Est, local.Est) {
		t.Fatalf("cluster %.12f ±%.12f (n=%d) not bit-equal to local %.12f ±%.12f (n=%d)",
			res.Est.Mean(), res.Est.RelCI(sampling.Z997), res.Processed,
			local.Est.Mean(), local.Est.RelCI(sampling.Z997), local.Processed)
	}
	if kinds := issuedKinds(coord); kinds[LeaseShard] == 0 || kinds[LeaseRange] != 0 {
		t.Fatalf("whole-library run issued leases %v, want shard leases only", kinds)
	}
}

// TestClusterOnlineStopping runs the §6.1 rule across the fleet: the run
// must stop early, satisfy the same confidence target a single-process
// run satisfies, and must have used read-order range leases only.
func TestClusterOnlineStopping(t *testing.T) {
	const relErr = 0.5
	lib := testLibrary(t)
	local, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: uarch.Config8Way(), RelErr: relErr})
	if err != nil {
		t.Fatal(err)
	}
	if !local.Est.Satisfied(sampling.Z997, relErr) {
		t.Fatalf("local online run did not satisfy ±%.0f%%; library unusable for this test", 100*relErr)
	}

	coord, cl := startCluster(t, RunSpec{RelErr: relErr}, Options{LeasePoints: 8})
	runWorkers(t, cl, 2)

	res, ok := coord.Final()
	if !ok {
		t.Fatal("run not finished")
	}
	if !res.Stopped {
		t.Fatal("stopping rule did not fire before library exhaustion")
	}
	if !res.Est.Satisfied(sampling.Z997, relErr) {
		t.Fatalf("stopped estimate does not satisfy the target: n=%d relCI=%.3f",
			res.Est.N(), res.Est.RelCI(sampling.Z997))
	}
	if res.Est.N() < sampling.MinSampleSize {
		t.Fatalf("stopped below the CLT floor: n=%d", res.Est.N())
	}
	st, _ := lpstore.Open(lib)
	total := st.Count()
	st.Close()
	if res.Processed >= total {
		t.Fatalf("online stop processed the whole library (%d points)", total)
	}
	// Truncation bias rule: no shard-major lease may exist in a stopping run.
	if kinds := issuedKinds(coord); kinds[LeaseRange] == 0 || len(kinds) != 1 {
		t.Fatalf("stopping run issued leases %v, want range leases only", kinds)
	}
}

// TestClusterStopIsTheSerialStop: a two-worker run over HTTP that its rule
// stops partway through the library stops where the local serial run under
// the same rule does, with its estimate to the last bit — an absolute
// target and a matched screen alike — however the workers' leases
// interleave.
func TestClusterStopIsTheSerialStop(t *testing.T) {
	lib := testLibrary(t)
	cfg := uarch.Config8Way()
	// The target is the precision the whole-library run had reached
	// two-thirds of the way in.
	whole, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: cfg, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	relErr := whole.History[2*whole.Processed/3].RelCI
	local, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: cfg, RelErr: relErr})
	if err != nil {
		t.Fatal(err)
	}
	if local.Processed >= whole.Processed {
		t.Fatalf("a ±%.2f%% target did not stop the local run", 100*relErr)
	}
	coord, cl := startCluster(t, RunSpec{RelErr: relErr}, Options{LeasePoints: 8})
	runWorkers(t, cl, 2)
	res, ok := coord.Final()
	if !ok || !res.Stopped || res.Processed != local.Processed || !reflect.DeepEqual(res.Est, local.Est) {
		t.Fatalf("cluster stopped %v at %d (%v); local at %d (%v)", res.Stopped, res.Processed, res.Est.String(),
			local.Processed, local.Est.String())
	}

	spec := RunSpec{Mode: ModeMatched, MemLat: 200, NoImpactThreshold: 0.5}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	mlocal, err := livepoint.RunMatchedFile(lib, livepoint.MatchedOpts{Base: cfgs[0], Exp: cfgs[1], Z: sampling.Z997, NoImpactThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !mlocal.StoppedNoImpact {
		t.Fatal("a ±50% screen did not stop the local matched run")
	}
	coord, cl = startCluster(t, spec, Options{LeasePoints: 8})
	runWorkers(t, cl, 2)
	mres, ok := coord.Final()
	if !ok || !mres.StoppedNoImpact || mres.Processed != mlocal.Processed || !reflect.DeepEqual(mres.MP, mlocal.MP) {
		t.Fatalf("cluster screened %v at %d (Δ %.12f); local at %d (Δ %.12f)", mres.StoppedNoImpact, mres.Processed,
			mres.MP.MeanDelta(), mlocal.Processed, mlocal.MP.MeanDelta())
	}
}

// TestClusterMatchedParity checks matched-pair cluster runs are bit-equal
// to the local RunMatchedFile fold.
func TestClusterMatchedParity(t *testing.T) {
	lib := testLibrary(t)
	spec := RunSpec{Mode: ModeMatched, MemLat: 200}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	local, err := livepoint.RunMatchedFile(lib, livepoint.MatchedOpts{Base: cfgs[0], Exp: cfgs[1], Z: sampling.Z997})
	if err != nil {
		t.Fatal(err)
	}

	coord, cl := startCluster(t, spec, Options{})
	runWorkers(t, cl, 2)

	res, ok := coord.Final()
	if !ok {
		t.Fatal("run not finished")
	}
	if !reflect.DeepEqual(res.MP, local.MP) {
		t.Fatalf("cluster matched pair not bit-equal: Δ %.12f vs %.12f", res.MP.MeanDelta(), local.MP.MeanDelta())
	}
	if res.Processed != local.Processed {
		t.Fatalf("cluster processed %d pairs, local %d", res.Processed, local.Processed)
	}
	// Matched-mode workers must report their runner stats like absolute
	// ones: a whole library of paired sims cannot have taken zero time.
	if res.SimTime <= 0 {
		t.Fatalf("matched cluster run dropped worker sim time: %v", res.SimTime)
	}
}

// TestLeaseExpiryReassignment injects a worker crash: a worker acquires a
// lease over HTTP and goes silent. The lease must expire, be reassigned
// to the surviving worker, and the final estimate must be identical to
// the local run — the crash changes nothing but turnaround. A late post
// from the crashed worker is rejected with 410.
func TestLeaseExpiryReassignment(t *testing.T) {
	lib := testLibrary(t)
	local, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: uarch.Config8Way()})
	if err != nil {
		t.Fatal(err)
	}

	const ttl = time.Minute
	coord, cl := startCluster(t, RunSpec{}, Options{LeaseTTL: ttl})
	clock := withFakeClock(coord)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The "crashed" worker: takes the first lease and never posts.
	var lr LeaseResponse
	if err := cl.DoJSON(ctx, http.MethodPost, "/v1/leases", LeaseRequest{Worker: "crash"}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Lease == nil {
		t.Fatalf("crashed worker got no lease: %+v", lr)
	}

	// The surviving worker drains everything, including the crashed
	// worker's lease: its TTL passes before the survivor first asks.
	clock.advance(ttl)
	var logBuf bytes.Buffer
	w := NewWorker("survivor", cl)
	w.Log = slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logBuf.String(), `msg="lease done"`) {
		t.Errorf("worker logged no per-lease progress lines:\n%s", logBuf.String())
	}

	res, ok := coord.Final()
	if !ok {
		t.Fatal("run not finished")
	}
	if res.Reassigned < 1 {
		t.Fatal("crashed lease was never reassigned")
	}
	if !reflect.DeepEqual(res.Est, local.Est) {
		t.Fatalf("estimate after crash not bit-equal to local: %.12f vs %.12f", res.Est.Mean(), local.Est.Mean())
	}

	// The crashed worker finally wakes up and posts: 410 Gone, no refold.
	late := &Result{LeaseID: lr.Lease.ID, Worker: "crash", Partial: Partial{CPIs: make([]float64, lr.Lease.Points)}}
	err = cl.DoJSON(ctx, http.MethodPost, "/v1/results", late, nil)
	if !lpserve.IsStatus(err, http.StatusGone) {
		t.Fatalf("late post for revoked lease: %v, want 410", err)
	}
	after, _ := coord.Final()
	if !reflect.DeepEqual(after.Est, res.Est) {
		t.Fatal("late post changed the sealed estimate")
	}
}

// synthStore writes a store of synthetic DER blobs — fine for driving the
// coordinator API directly, where nothing is simulated.
func synthStore(t *testing.T, n, shardPoints int, shuffled bool) *lpstore.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	blobs := make([][]byte, n)
	for i := range blobs {
		payload := make([]byte, 40+rng.Intn(100))
		rng.Read(payload)
		b := asn1der.NewBuilder()
		b.OctetString(payload)
		blobs[i] = b.Bytes()
	}
	path := filepath.Join(t.TempDir(), "synth.lplib")
	meta := livepoint.Meta{Benchmark: "syn.protocol", UnitLen: 10, WarmLen: 20, Shuffled: shuffled}
	if _, err := lpstore.Write(path, meta, blobs, lpstore.WriteOpts{ShardPoints: shardPoints}); err != nil {
		t.Fatal(err)
	}
	st, err := lpstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestResultRejection(t *testing.T) {
	st := synthStore(t, 23, 4, true)
	coord, err := NewCoordinator(st, RunSpec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr := coord.Acquire("w")
	if lr.Lease == nil {
		t.Fatalf("no lease: %+v", lr)
	}

	// Wrong observation count.
	if _, err := coord.Result(&Result{LeaseID: lr.Lease.ID, Partial: Partial{CPIs: []float64{1}}}); err == nil {
		t.Fatal("short result accepted")
	}
	// Unknown lease.
	if _, err := coord.Result(&Result{LeaseID: 999, Partial: Partial{CPIs: []float64{1}}}); err != ErrLeaseGone {
		t.Fatalf("unknown lease: %v, want ErrLeaseGone", err)
	}
	// Correct result folds once...
	good := &Result{LeaseID: lr.Lease.ID, Partial: Partial{CPIs: make([]float64, lr.Lease.Points)}}
	for i := range good.CPIs {
		good.CPIs[i] = 1 + float64(i)
	}
	resp, err := coord.Result(good)
	if err != nil || !resp.Accepted {
		t.Fatalf("good result rejected: %+v, %v", resp, err)
	}
	// ...and a duplicate is refused.
	if _, err := coord.Result(good); err != ErrDuplicate {
		t.Fatalf("duplicate: %v, want ErrDuplicate", err)
	}
}

// TestResultsAreOutsideInput: what a worker posts is checked like any other
// input before it can reach the journal or the estimate. CPIs that no
// simulation produces — negative, or too large to square — and a body past
// the size bound are refused with a 4xx, counted, journal nothing, fold
// nothing, and leave the lease outstanding for the honest result. (All of
// them used to be accepted=true; /v1/run then reported a mean of 8.99e307.)
func TestResultsAreOutsideInput(t *testing.T) {
	st := synthStore(t, 23, 4, true)
	reg := obs.NewRegistry()
	coord, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: reg}, filepath.Join(t.TempDir(), "run.waj"))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := lpserve.NewServerWithMetrics(st, obs.NewRegistry())
	coord.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postTo := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(body string) int { t.Helper(); return postTo("/v1/results", body) }

	l := coord.Acquire("w").Lease
	result := func(cpi string) string {
		return fmt.Sprintf(`{"leaseId":%d,"worker":"w","cpis":[%s]}`, l.ID, strings.TrimSuffix(strings.Repeat(cpi+",", l.Points), ","))
	}
	appends := reg.Counter("lpcluster_journal_appends_total", "").Value()
	for _, cpi := range []string{"-3", "0", "1.7e308", "1.8e308"} {
		if code := post(result(cpi)); code != http.StatusBadRequest {
			t.Errorf("a lease of CPIs all %s: status %d, want 400", cpi, code)
		}
	}
	// 1.8e308 is no float64 at all and dies in the decoder; the other three
	// reach the check.
	if got := reg.Counter("lpcluster_results_rejected_total", "", "reason", "mismatch").Value(); got != 3 {
		t.Errorf("mismatch rejections %d, want 3", got)
	}
	// A body past the bound, however well formed: here, harmless padding.
	if code := post(`{"worker":"` + strings.Repeat("w", maxResultBytes) + `",` + result("1.5")[1:]); code < 400 || code > 499 {
		t.Errorf("oversized result: status %d, want 4xx", code)
	}
	if code := postTo("/v1/leases", `{"worker":"`+strings.Repeat("w", maxEnvelopeBytes)+`"}`); code < 400 || code > 499 {
		t.Errorf("oversized lease request: status %d, want 4xx", code)
	}

	rs := coord.State()
	if rs.Done != 0 || rs.ActiveLeases != 1 || reg.Counter("lpcluster_journal_appends_total", "").Value() != appends {
		t.Fatalf("refused results left a mark: %+v", rs)
	}
	if code := post(result("1.5")); code != http.StatusOK {
		t.Fatalf("the honest result after the refusals: status %d", code)
	}
	if rs := coord.State(); rs.Done != l.Points || rs.Mean != 1.5 {
		t.Fatalf("after the honest result: %+v", rs)
	}
}

// TestStragglerAfterFinish covers the late-result path once the stopping
// rule has fired: the straggler's lease must resolve (leave the active
// count, answer 409 to a duplicate) without perturbing the sealed
// estimate.
func TestStragglerAfterFinish(t *testing.T) {
	st := synthStore(t, 60, 8, true)
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(st, RunSpec{RelErr: 0.5}, Options{LeasePoints: 30, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	la := coord.Acquire("w1")
	lb := coord.Acquire("w2")
	if la.Lease == nil || lb.Lease == nil {
		t.Fatalf("leases not issued: %+v / %+v", la, lb)
	}

	// Constant CPIs: zero variance, so the fold satisfies any relative
	// target the moment n reaches the CLT floor (LeasePoints ==
	// MinSampleSize makes that this very post).
	cpis := make([]float64, la.Lease.Points)
	for i := range cpis {
		cpis[i] = 1
	}
	resp, err := coord.Result(&Result{LeaseID: la.Lease.ID, Worker: "w1", Partial: Partial{CPIs: cpis}})
	if err != nil || !resp.Accepted || !resp.Done {
		t.Fatalf("finishing result: %+v, %v", resp, err)
	}
	mid := coord.State()
	if mid.Phase != PhaseDone {
		t.Fatalf("run not done after zero-variance fold: %+v", mid)
	}
	if mid.ActiveLeases != 1 {
		t.Fatalf("straggling lease should still be active: %+v", mid)
	}

	// The straggler posts after the finish line: acknowledged but not
	// folded, and accounted out of the active set.
	bcpis := make([]float64, lb.Lease.Points)
	resp, err = coord.Result(&Result{LeaseID: lb.Lease.ID, Worker: "w2", Partial: Partial{CPIs: bcpis}})
	if err != nil {
		t.Fatalf("straggler result: %v", err)
	}
	if resp.Accepted || !resp.Done {
		t.Fatalf("straggler verdict %+v, want accepted=false done=true", resp)
	}
	if got := coord.State().ActiveLeases; got != 0 {
		t.Fatalf("straggler left active-lease count at %d", got)
	}
	res, _ := coord.Final()
	if res.Est.N() != la.Lease.Points {
		t.Fatalf("straggler was folded: n=%d, want %d", res.Est.N(), la.Lease.Points)
	}
	if _, err := coord.Result(&Result{LeaseID: lb.Lease.ID, Worker: "w2", Partial: Partial{CPIs: bcpis}}); err != ErrDuplicate {
		t.Fatalf("straggler repost: %v, want ErrDuplicate", err)
	}
	if got := reg.Counter("lpcluster_straggler_results_total", "").Value(); got != 1 {
		t.Fatalf("straggler counter %d, want 1", got)
	}
}

// TestOversizedLeaseClamp checks a lease can never cover more points than
// one /v1/points response may carry: Options.LeasePoints above
// lpserve.MaxBatchPoints is clamped, not passed through.
func TestOversizedLeaseClamp(t *testing.T) {
	st := synthStore(t, lpserve.MaxBatchPoints+200, 512, true)
	coord, err := NewCoordinator(st, RunSpec{RelErr: 0.01}, Options{LeasePoints: 100_000, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if coord.opt.LeasePoints != lpserve.MaxBatchPoints {
		t.Fatalf("LeasePoints %d, want clamp to %d", coord.opt.LeasePoints, lpserve.MaxBatchPoints)
	}
	lr := coord.Acquire("w")
	if lr.Lease == nil {
		t.Fatalf("no lease: %+v", lr)
	}
	if lr.Lease.Kind != LeaseRange || lr.Lease.Points != lpserve.MaxBatchPoints {
		t.Fatalf("lease %+v, want a %d-point range", lr.Lease, lpserve.MaxBatchPoints)
	}
}

// TestStateReclaimsExpiredLeases: a scrape or /v1/run poll alone — no
// Acquire traffic — must surface a crashed worker's lease as pending, not
// leave it active forever.
func TestStateReclaimsExpiredLeases(t *testing.T) {
	st := synthStore(t, 40, 8, true)
	coord, err := NewCoordinator(st, RunSpec{}, Options{LeaseTTL: time.Minute, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	clock := withFakeClock(coord)
	if lr := coord.Acquire("crash"); lr.Lease == nil {
		t.Fatalf("no lease: %+v", lr)
	}
	clock.advance(time.Minute - time.Nanosecond)
	if rs := coord.State(); rs.ActiveLeases != 1 || rs.PendingLeases != 0 {
		t.Fatalf("lease reclaimed before its deadline: %+v", rs)
	}
	clock.advance(time.Nanosecond)
	rs := coord.State()
	if rs.ActiveLeases != 0 || rs.PendingLeases != 1 || rs.Reassigned != 1 {
		t.Fatalf("State did not reclaim the expired lease: %+v", rs)
	}
}

// TestRunStateProgress covers GET /v1/run mid-run: the zero-fold state
// must round-trip JSON (regression: an empty estimate's relative CI is
// +Inf, which encoding/json refuses — the response body came back empty),
// and after one partial the live estimate, its stopping-rule signal and
// the fold rate must be visible — in a matched run too, where the signal
// is the delta's half-width against the baseline mean.
func TestRunStateProgress(t *testing.T) {
	for _, spec := range []RunSpec{
		{Mode: ModeAbsolute, RelErr: 0.01},
		{Mode: ModeMatched, MemLat: 200, RelErr: 0.01},
	} {
		t.Run(spec.Mode, func(t *testing.T) {
			matched := spec.Mode == ModeMatched
			st := synthStore(t, 60, 8, true)
			coord, err := NewCoordinator(st, spec, Options{LeasePoints: 20, Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			srv := lpserve.NewServerWithMetrics(st, obs.NewRegistry())
			coord.Mount(srv)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			cl, err := lpserve.Dial(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			var rs RunState
			if err := cl.DoJSON(ctx, http.MethodGet, "/v1/run", nil, &rs); err != nil {
				t.Fatalf("zero-fold /v1/run failed to round-trip: %v", err)
			}
			if rs.Phase != PhaseRunning || rs.N != 0 || rs.RelCI != 0 || rs.Mean != 0 {
				t.Fatalf("zero-fold state %+v", rs)
			}
			if rs.TargetRelErr != 0.01 {
				t.Fatalf("TargetRelErr %v, want 0.01", rs.TargetRelErr)
			}

			// Fold one partial with real variance (far from the 1% target,
			// and below MinSampleSize, so the run keeps going).
			var lr LeaseResponse
			if err := cl.DoJSON(ctx, http.MethodPost, "/v1/leases", LeaseRequest{Worker: "w"}, &lr); err != nil {
				t.Fatal(err)
			}
			if lr.Lease == nil {
				t.Fatalf("no lease: %+v", lr)
			}
			cpis := make([]float64, lr.Lease.Points)
			for i := range cpis {
				cpis[i] = 1 + float64(i%5)
			}
			part := Partial{CPIs: cpis}
			if matched {
				exp := make([]float64, len(cpis))
				for i, c := range cpis {
					exp[i] = 1.1*c + 0.05*float64(i%3)
				}
				part = Partial{BaseCPIs: cpis, ExpCPIs: exp}
			}
			if err := cl.DoJSON(ctx, http.MethodPost, "/v1/results",
				&Result{LeaseID: lr.Lease.ID, Worker: "w", Partial: part}, nil); err != nil {
				t.Fatal(err)
			}

			if err := cl.DoJSON(ctx, http.MethodGet, "/v1/run", nil, &rs); err != nil {
				t.Fatal(err)
			}
			if rs.Phase != PhaseRunning {
				t.Fatalf("run finished prematurely: %+v", rs)
			}
			if rs.N != lr.Lease.Points || rs.RelCI <= 0 {
				t.Fatalf("mid-run estimate not live: %+v", rs)
			}
			if !matched && rs.Mean <= 0 {
				t.Fatalf("mid-run mean not live: %+v", rs)
			}
			if matched && (rs.BaseMean <= 0 || rs.RelCI != rs.DeltaCI/math.Abs(rs.BaseMean)) {
				t.Fatalf("matched relCI %v is not deltaCI/|baseMean| = %v/%v", rs.RelCI, rs.DeltaCI, rs.BaseMean)
			}
			if rs.PointsPerSec <= 0 {
				t.Fatalf("mid-run fold rate missing: %+v", rs)
			}
		})
	}
}

func TestStoppingRequiresShuffledLibrary(t *testing.T) {
	st := synthStore(t, 16, 4, false)
	if _, err := NewCoordinator(st, RunSpec{RelErr: 0.1}, Options{}); err == nil {
		t.Fatal("unshuffled library accepted for an online-stopping run")
	}
	if _, err := NewCoordinator(st, RunSpec{}, Options{}); err != nil {
		t.Fatalf("whole-library run on unshuffled library refused: %v", err)
	}
}
