package lpcluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/uarch"
)

// synthCPI is the deterministic per-position observation the journal
// tests feed the coordinator: enough variance that no stopping rule
// fires by accident, and a pure function of the read-order position so
// any incarnation posts identical floats for the same coverage.
func synthCPI(pos int) float64 { return 1 + 0.01*float64(pos) }

// leasePositions returns the read-order positions l covers.
func leasePositions(t *testing.T, st *lpstore.Store, l *Lease) []int {
	t.Helper()
	if l.Kind == LeaseShard {
		positions, err := st.ShardReadPositions(l.Shard)
		if err != nil {
			t.Fatal(err)
		}
		return positions
	}
	positions := make([]int, l.Count)
	for i := range positions {
		positions[i] = l.Start + i
	}
	return positions
}

// leaseResult builds the Result a well-behaved worker would post for l,
// with CPIs derived from the lease's read-order positions: synthCPI for an
// absolute run, and for a matched run synthCPI as the baseline under an
// experimental CPI some 5 % above it, jittered so the delta has variance.
func leaseResult(t *testing.T, st *lpstore.Store, l *Lease, matched bool) *Result {
	t.Helper()
	res := &Result{LeaseID: l.ID, Epoch: l.Epoch, Worker: "w"}
	for _, pos := range leasePositions(t, st, l) {
		base := synthCPI(pos)
		if matched {
			res.BaseCPIs = append(res.BaseCPIs, base)
			res.ExpCPIs = append(res.ExpCPIs, 1.05*base+0.002*float64(pos*7%11))
		} else {
			res.CPIs = append(res.CPIs, base)
		}
	}
	return res
}

// drain drives c to completion single-threadedly, posting the synthetic
// per-position CPIs for every lease it hands out.
func drain(t *testing.T, c *Coordinator, st *lpstore.Store) {
	t.Helper()
	matched := c.Spec().Mode == ModeMatched
	for i := 0; i < 10_000; i++ {
		lr := c.Acquire("w")
		if lr.Done {
			return
		}
		if lr.Lease == nil {
			t.Fatalf("coordinator stalled with run unfinished: %+v", c.State())
		}
		if _, err := c.Result(leaseResult(t, st, lr.Lease, matched)); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("run did not finish")
}

// referenceEstimate is the uninterrupted baseline: the same synthetic
// run on a journal-free coordinator, folded to completion.
func referenceEstimate(t *testing.T, st *lpstore.Store, spec RunSpec, opt Options) *ClusterResult {
	t.Helper()
	opt.Metrics = obs.NewRegistry()
	c, err := NewCoordinator(st, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, c, st)
	res, ok := c.Final()
	if !ok {
		t.Fatal("reference run not finished")
	}
	return res
}

// TestJournalResumeParityShardMajor is the tentpole acceptance check at
// the coordinator API: a whole-library (shard-major) journaled run is
// killed after two folds, resumed, and completed — the estimate must be
// bit-equal to an uninterrupted run, nothing double-counted, and the
// pre-crash folds must survive as replayed state rather than re-leased
// work.
func TestJournalResumeParityShardMajor(t *testing.T) {
	st := synthStore(t, 40, 8, true)
	want := referenceEstimate(t, st, RunSpec{}, Options{})
	path := filepath.Join(t.TempDir(), "run.waj")

	c1, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Epoch() != 0 {
		t.Fatalf("fresh journaled run epoch %d, want 0", c1.Epoch())
	}
	var crashed int
	for i := 0; i < 2; i++ {
		lr := c1.Acquire("w")
		if lr.Lease == nil {
			t.Fatalf("no lease: %+v", lr)
		}
		if lr.Lease.Kind != LeaseShard {
			t.Fatalf("whole-library journaled run issued a %s lease", lr.Lease.Kind)
		}
		if _, err := c1.Result(leaseResult(t, st, lr.Lease, false)); err != nil {
			t.Fatal(err)
		}
		crashed += lr.Lease.Points
	}
	// A third lease is issued but its result never lands: the "crash"
	// happens with one lease in flight, the common case.
	inflight := c1.Acquire("w")
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c2, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: reg}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Epoch() != 1 {
		t.Fatalf("resumed epoch %d, want 1", c2.Epoch())
	}
	rs := c2.State()
	if rs.Done != crashed {
		t.Fatalf("resumed with %d points folded, want the %d journaled before the crash", rs.Done, crashed)
	}
	if got := reg.Counter("lpcluster_journal_replayed_results_total", "").Value(); got != 2 {
		t.Fatalf("replayed-results counter %d, want 2", got)
	}

	// The crashed incarnation's in-flight lease posts to the new one:
	// stale epoch, 410 semantics, counted under reason="epoch".
	if _, err := c2.Result(leaseResult(t, st, inflight.Lease, false)); err != ErrLeaseGone {
		t.Fatalf("stale-epoch result: %v, want ErrLeaseGone", err)
	}
	if got := reg.Counter("lpcluster_results_rejected_total", "", "reason", "epoch").Value(); got != 1 {
		t.Fatalf("epoch rejection counter %d, want 1", got)
	}

	drain(t, c2, st)
	res, ok := c2.Final()
	if !ok {
		t.Fatal("resumed run not finished")
	}
	if !reflect.DeepEqual(res.Est, want.Est) {
		t.Fatalf("resumed estimate not bit-equal to uninterrupted run: %.15f vs %.15f",
			res.Est.Mean(), want.Est.Mean())
	}
	if res.Processed != st.Count() {
		t.Fatalf("resumed run processed %d of %d points", res.Processed, st.Count())
	}
}

// TestJournalResumeRangeGaps resumes a range-lease (online stopping) run
// whose pre-crash folds completed out of order, so the unfolded coverage
// is a set of read-order gaps. The rebuilt pending queue must cover
// exactly those gaps and the completed run must match the uninterrupted
// baseline bit for bit.
func TestJournalResumeRangeGaps(t *testing.T) {
	st := synthStore(t, 50, 10, true)
	// RelErr far below what the synthetic variance can satisfy: range
	// leases are forced, but the run always exhausts the library.
	spec := RunSpec{RelErr: 1e-6}
	opt := Options{LeasePoints: 8}
	want := referenceEstimate(t, st, spec, opt)
	path := filepath.Join(t.TempDir(), "run.waj")

	c1, err := NewJournaledCoordinator(st, spec, Options{LeasePoints: 8, Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatal(err)
	}
	la := c1.Acquire("w") // [0,8)
	lb := c1.Acquire("w") // [8,16)
	lc := c1.Acquire("w") // [16,24)
	if la.Lease == nil || lb.Lease == nil || lc.Lease == nil {
		t.Fatal("leases not issued")
	}
	// Fold a and c; b is lost with the crash, leaving a gap at [8,16).
	for _, lr := range []LeaseResponse{la, lc} {
		if _, err := c1.Result(leaseResult(t, st, lr.Lease, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewJournaledCoordinator(st, spec, Options{LeasePoints: 8, Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rs := c2.State()
	if rs.Done != 16 {
		t.Fatalf("resumed with %d folded, want 16", rs.Done)
	}
	// Gaps: [8,16) and [24,50), chunked by LeasePoints=8 → 1 + 4 leases.
	if rs.PendingLeases != 5 {
		t.Fatalf("rebuilt %d pending leases, want 5: %+v", rs.PendingLeases, rs)
	}
	drain(t, c2, st)
	res, _ := c2.Final()
	if !reflect.DeepEqual(res.Est, want.Est) {
		t.Fatalf("resumed estimate not bit-equal: %.15f vs %.15f", res.Est.Mean(), want.Est.Mean())
	}
}

// TestJournalTornTail kills the write mid-record: a journal whose last
// line is a torn fragment (what a SIGKILL during append leaves behind)
// must resume from the last intact record, truncating the garbage.
func TestJournalTornTail(t *testing.T) {
	st := synthStore(t, 40, 8, true)
	path := filepath.Join(t.TempDir(), "run.waj")
	c1, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatal(err)
	}
	lr := c1.Acquire("w")
	if _, err := c1.Result(leaseResult(t, st, lr.Lease, false)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"result","kind":"shard","sha`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatalf("torn tail refused resume: %v", err)
	}
	defer c2.Close()
	if got := c2.State().Done; got != lr.Lease.Points {
		t.Fatalf("resumed with %d folded, want %d (torn record must not fold)", got, lr.Lease.Points)
	}
	drain(t, c2, st)

	// The truncated-and-appended journal must itself be cleanly
	// replayable: a second resume sees only intact records.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatalf("journal not clean after torn-tail truncation: %v", err)
	}
	defer c3.Close()
	if c3.Epoch() != 2 {
		t.Fatalf("second resume epoch %d, want 2", c3.Epoch())
	}
	if got := c3.State().Done; got != st.Count() {
		t.Fatalf("finished run resumed with %d of %d folded", got, st.Count())
	}
}

// TestJournalIsCheckedAsInput: replay trusts a record no more than Result
// trusts a worker. A result after the run's end, a position folded twice,
// a CPI no simulation produces and coverage outside the library each
// refuse the resume instead of bending the estimate.
func TestJournalIsCheckedAsInput(t *testing.T) {
	st := synthStore(t, 16, 8, true)
	run := `{"t":"run","spec":{"mode":"absolute","config":"8way","z":3,"relErr":0},"benchmark":"syn.protocol","points":16}` + "\n"
	shard := func(s int, cpi string) string {
		return fmt.Sprintf(`{"t":"result","kind":"shard","shard":%d,"count":8,"cpis":[%s]}`+"\n", s, strings.TrimSuffix(strings.Repeat(cpi+",", 8), ","))
	}
	for name, tc := range map[string]struct{ journal, want string }{
		"intact":        {run + shard(1, "1.5") + shard(0, "2"), ""},
		"past the end":  {run + shard(0, "1.5") + shard(1, "1.5") + shard(1, "1.5"), "already finished"},
		"folded twice":  {run + shard(0, "1.5") + shard(0, "1.5"), "twice"},
		"negative CPI":  {run + shard(0, "-3"), "CPI -3"},
		"short column":  {run + strings.Replace(shard(0, "1.5"), "1.5,", "", 1), "7 CPIs for 8 points"},
		"no such shard": {run + shard(2, "1.5"), "shard 2"},
		"range too far": {run + `{"t":"result","kind":"range","start":12,"count":8,"cpis":[1,1,1,1,1,1,1,1]}` + "\n", "exceeds"},
	} {
		path := filepath.Join(t.TempDir(), "run.waj")
		if err := os.WriteFile(path, []byte(tc.journal), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path)
		if err == nil {
			c.Close()
		}
		if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume gave %v, want an error mentioning %q", name, err, tc.want)
		}
	}
}

// TestJournalMismatchRefused: a journal resumes only the run it records —
// different flags or a different library must be refused loudly, not
// silently folded into a corrupt estimate.
func TestJournalMismatchRefused(t *testing.T) {
	st := synthStore(t, 40, 8, true)
	path := filepath.Join(t.TempDir(), "run.waj")
	c1, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := NewJournaledCoordinator(st, RunSpec{RelErr: 0.5}, Options{Metrics: obs.NewRegistry()}, path); err == nil {
		t.Fatal("journal resumed under a different run spec")
	}
	other := synthStore(t, 23, 4, true)
	if _, err := NewJournaledCoordinator(other, RunSpec{}, Options{Metrics: obs.NewRegistry()}, path); err == nil {
		t.Fatal("journal resumed against a different library")
	}
}

// TestJournalPinsLibraryLayout: a journal stores CPIs by coverage, so it
// holds only over the read order it was written over. Reshuffle the
// library's index between crash and restart and [0,8) names eight other
// points; the resume must be refused, naming both layouts. Before the run
// record carried the layout this resumed, reported all 40 points, and had
// folded 12 of them twice and 12 never.
func TestJournalPinsLibraryLayout(t *testing.T) {
	st := synthStore(t, 40, 8, true)
	spec := RunSpec{RelErr: 1e-6} // range leases; never satisfied
	opt := Options{LeasePoints: 8, Metrics: obs.NewRegistry()}
	path := filepath.Join(t.TempDir(), "run.waj")
	c1, err := NewJournaledCoordinator(st, spec, opt, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c1.Result(leaseResult(t, st, c1.Acquire("w").Lease, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	was, err := layoutOf(st)
	if err != nil {
		t.Fatal(err)
	}

	st = reshuffled(t, st, 99)
	is, err := layoutOf(st)
	if err != nil || is == was {
		t.Fatalf("layout %s before the reshuffle, %s after (%v)", was, is, err)
	}
	_, err = NewJournaledCoordinator(st, spec, opt, path)
	if err == nil || !strings.Contains(err.Error(), was) || !strings.Contains(err.Error(), is) {
		t.Fatalf("resume over a reshuffled library: %v; want a refusal naming layouts %s and %s", err, was, is)
	}
	// Shuffling back restores the layout, and with it the journal.
	// (lpstore.Shuffle permutes the current order, so only a rewrite of the
	// original file can do that; a fresh store of the same arguments is one.)
	c2, err := NewJournaledCoordinator(synthStore(t, 40, 8, true), spec, opt, path)
	if err != nil {
		t.Fatalf("resume over the original layout: %v", err)
	}
	c2.Close()
}

// TestClusterJournalRestartHTTP is the end-to-end crash drill: a
// journaled coordinator serving a real library over HTTP is shut down
// mid-run — journal and listener torn down — while a worker is pulling.
// A new incarnation on the same address must resume, the worker must
// ride the outage out without a restart, and the finished run must be
// bit-equal to the serial local baseline.
func TestClusterJournalRestartHTTP(t *testing.T) {
	lib := testLibrary(t)
	local, err := livepoint.RunFile(lib, livepoint.RunOpts{Cfg: uarch.Config8Way()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := lpstore.Open(lib)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	jpath := filepath.Join(t.TempDir(), "run.waj")

	boot := func(addr string) (*Coordinator, *lpserve.Server, string) {
		t.Helper()
		coord, err := NewJournaledCoordinator(st, RunSpec{}, Options{Metrics: obs.NewRegistry()}, jpath)
		if err != nil {
			t.Fatal(err)
		}
		srv := lpserve.NewServerWithMetrics(st, obs.NewRegistry())
		coord.Mount(srv)
		var l net.Listener
		deadline := time.Now().Add(5 * time.Second)
		for {
			l, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("relisten on %s: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		go srv.Serve(l)
		return coord, srv, l.Addr().String()
	}

	coord1, srv1, addr := boot("127.0.0.1:0")
	cl, err := lpserve.Dial("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	w := NewWorker("rider", cl)
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()

	// Let at least one fold land, then yank the coordinator.
	for coord1.State().Done == 0 {
		if ctx.Err() != nil {
			t.Fatal("no fold before timeout")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	// Hold the coordinator down for longer than the HTTP client's retry
	// budget, so the outage is a real one the worker must back off
	// through — not a blip its transport retries paper over.
	time.Sleep(1200 * time.Millisecond)

	coord2, srv2, _ := boot(addr)
	defer coord2.Close()
	defer srv2.Shutdown(context.Background())
	if coord2.Epoch() != 1 {
		t.Fatalf("restarted coordinator epoch %d, want 1", coord2.Epoch())
	}

	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("worker did not ride the restart out: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("worker did not finish after coordinator restart")
	}
	select {
	case <-coord2.Done():
	case <-ctx.Done():
		t.Fatal("resumed run never finished")
	}
	res, ok := coord2.Final()
	if !ok {
		t.Fatal("resumed run not final")
	}
	if res.Processed != local.Processed {
		t.Fatalf("restarted run processed %d points, local %d", res.Processed, local.Processed)
	}
	if !reflect.DeepEqual(res.Est, local.Est) {
		t.Fatalf("restarted run estimate not bit-equal to local: %.15f vs %.15f",
			res.Est.Mean(), local.Est.Mean())
	}
	// The worker either hit the dead listener (a ridden-out outage) or
	// was mid-simulation the whole time and had its stale-epoch post
	// rejected; both leave a visible mark.
	if w.Reconnects+w.Expired < 1 {
		t.Fatal("worker shows no trace of the coordinator restart")
	}
}

// TestWorkerDrain: Drain must stop a worker at a lease boundary — the
// in-flight lease finished and posted, nothing newly acquired, Run
// returning nil — leaving no lease dangling for the TTL reaper.
func TestWorkerDrain(t *testing.T) {
	coord, cl := startCluster(t, RunSpec{}, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := NewWorker("drainer", cl)
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	for coord.State().Done == 0 {
		if ctx.Err() != nil {
			t.Fatal("no fold before timeout")
		}
		time.Sleep(time.Millisecond)
	}
	w.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained worker returned %v", err)
		}
	case <-ctx.Done():
		t.Fatal("worker did not stop after Drain")
	}
	rs := coord.State()
	if rs.ActiveLeases != 0 {
		t.Fatalf("drained worker left %d leases active", rs.ActiveLeases)
	}
	if w.Leases < 1 {
		t.Fatal("worker drained before posting anything")
	}
}
