package lpcluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpserve"
	"livepoints/internal/uarch"
)

// Reconnect backoff while the coordinator is unreachable: capped
// exponential with full jitter, so a restarted coordinator is not hit by
// the whole fleet in the same instant.
const (
	reconnectBase = 500 * time.Millisecond
	reconnectCap  = 15 * time.Second
)

// Worker is one stateless lease puller: it reads the run spec from the
// coordinator, then loops acquire → fetch → simulate → post until the
// coordinator reports the run done. All coordinator traffic rides the
// lpserve client's retry policy (per-request timeouts, capped exponential
// backoff); beyond that, a worker outlives the coordinator itself — when
// the server becomes unreachable (crash, restart, network partition) the
// worker backs off with jitter, re-fetches the run spec once the
// coordinator answers again, and continues pulling. A journaled
// coordinator restart therefore needs no fleet restart: the worker's
// pre-restart lease is rejected with 410 (stale epoch), counted under
// Expired, and replaced by a fresh one.
//
// A worker that loses a lease race — its lease expired and was reassigned
// while it was still simulating — discards that work and moves on; the
// coordinator has already promised those points to a replacement.
type Worker struct {
	// ID names the worker in leases (for operability; uniqueness is not
	// required for correctness).
	ID string

	// Log, when set, receives a debug line per completed lease
	// (points/s for the lease, cumulative totals). Nil logs nothing.
	Log *slog.Logger

	// ReconnectBase and ReconnectCap override the coordinator-outage
	// backoff schedule. Zero values keep the production defaults; fault
	// soaks shrink them so a run spends its wall clock simulating, not
	// sleeping.
	ReconnectBase, ReconnectCap time.Duration

	cl   *lpserve.Client
	cfgs []uarch.Config

	// A lease is fetched into body, a buffer off lpstore's free list
	// given back once the lease is simulated, and simulated on sim's
	// arenas, which the worker keeps for its life.
	body lpserve.Body
	sim  livepoint.BlobSim

	draining atomic.Bool

	// Leases and Points count successfully posted work.
	Leases, Points int
	// Expired counts leases lost to expiry or a coordinator restart
	// (work discarded).
	Expired int
	// Reconnects counts coordinator outages ridden out.
	Reconnects int
}

// NewWorker returns a worker pulling from the coordinator behind cl's
// base URL (the same server that streams the library bytes).
func NewWorker(id string, cl *lpserve.Client) *Worker {
	return &Worker{ID: id, cl: cl}
}

// discardLog is what a nil Worker.Log logs to.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (w *Worker) log() *slog.Logger {
	if w.Log == nil {
		return discardLog
	}
	return w.Log
}

// Drain asks the worker to stop at the next lease boundary: the
// in-flight lease (if any) is finished and posted, no further lease is
// acquired, and Run returns nil. Safe to call from any goroutine; this
// is the graceful half of lpworker's SIGTERM handling.
func (w *Worker) Drain() { w.draining.Store(true) }

// transient reports whether a coordinator request failed in a way worth
// outwaiting: a transport-level error (connection refused, reset, timeout
// — the coordinator may be restarting) or a 5xx verdict. 4xx responses
// and protocol errors — a 2xx reply whose body failed to decode — are
// not outages: the coordinator is up and answering, it is the exchange
// itself that is broken, and retrying the same exchange forever would
// pin the worker in a reconnect loop it can never leave.
func transient(err error) bool {
	var se *lpserve.StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	var pe *lpserve.ProtocolError
	if errors.As(err, &pe) {
		return false
	}
	var te *lpserve.TransportError
	if errors.As(err, &te) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
		errors.Is(err, context.DeadlineExceeded) {
		// Connection severed mid-body or a per-request timeout: the
		// classic shapes of a coordinator dying under us.
		return true
	}
	return false
}

// Run pulls and simulates leases until the run completes, Drain is
// called, the context is cancelled, or a non-recoverable error occurs.
// While the coordinator is unreachable it waits with jittered capped
// backoff and re-fetches the run spec before pulling again.
func (w *Worker) Run(ctx context.Context) error {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	outage := 0
	for {
		if w.draining.Load() {
			return nil
		}
		var state RunState
		if err := w.cl.DoJSON(ctx, http.MethodGet, "/v1/run", nil, &state); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if transient(err) {
				if err := w.awaitCoordinator(ctx, rng, &outage, err); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("lpcluster: worker %s: fetching run spec: %w", w.ID, err)
		}
		outage = 0
		cfgs, err := state.Spec.Configs()
		if err != nil {
			return fmt.Errorf("lpcluster: worker %s: %w", w.ID, err)
		}
		w.cfgs = cfgs

		err = w.pull(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if transient(err) {
			// Coordinator lost mid-pull: outwait it, then re-enter the
			// outer loop to re-read the (possibly resumed) run spec.
			if err := w.awaitCoordinator(ctx, rng, &outage, err); err != nil {
				return err
			}
			continue
		}
		return err
	}
}

// awaitCoordinator sleeps one jittered backoff step, logging the outage.
func (w *Worker) awaitCoordinator(ctx context.Context, rng *rand.Rand, outage *int, cause error) error {
	base, cap := w.ReconnectBase, w.ReconnectCap
	if base <= 0 {
		base = reconnectBase
	}
	if cap <= 0 {
		cap = reconnectCap
	}
	d := base << uint(*outage)
	if d > cap || d <= 0 {
		d = cap
	}
	// Full jitter: anywhere in (0, d], desynchronizing the fleet's
	// reconnect stampede.
	d = time.Duration(1 + rng.Int63n(int64(d)))
	if *outage == 0 {
		w.Reconnects++
	}
	*outage++
	w.log().Warn("coordinator unreachable; backing off",
		"worker", w.ID, "wait", d, "attempt", *outage, "err", cause)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// pull loops acquire → simulate → post until the run is done (returns
// nil), the worker is draining (nil), the context is cancelled, or a
// request fails (the caller decides whether the failure is an outage
// worth outwaiting).
func (w *Worker) pull(ctx context.Context) error {
	for {
		if w.draining.Load() {
			return nil
		}
		var lr LeaseResponse
		if err := w.cl.DoJSON(ctx, http.MethodPost, "/v1/leases", LeaseRequest{Worker: w.ID}, &lr); err != nil {
			return fmt.Errorf("lpcluster: worker %s: acquiring lease: %w", w.ID, err)
		}
		if lr.Done {
			return nil
		}
		if lr.Lease == nil {
			wait := time.Duration(lr.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}

		t0 := time.Now()
		res, err := w.simulate(ctx, lr.Lease)
		if err != nil {
			return fmt.Errorf("lpcluster: worker %s: lease %d: %w", w.ID, lr.Lease.ID, err)
		}
		var rr ResultResponse
		err = w.cl.DoJSON(ctx, http.MethodPost, "/v1/results", res, &rr)
		if lpserve.IsStatus(err, http.StatusGone) || lpserve.IsStatus(err, http.StatusConflict) {
			// Deadline blown mid-simulation, or the coordinator restarted
			// under this lease; either way the points belong to a newer
			// lease now.
			w.Expired++
			continue
		}
		if err != nil {
			return fmt.Errorf("lpcluster: worker %s: posting lease %d: %w", w.ID, lr.Lease.ID, err)
		}
		if rr.Accepted {
			w.Leases++
			w.Points += lr.Lease.Points
			if d := time.Since(t0); d > 0 {
				w.log().Debug("lease done", "worker", w.ID, "lease", lr.Lease.ID,
					"points", lr.Lease.Points, "pointsPerSec", float64(lr.Lease.Points)/d.Seconds(),
					"totalPoints", w.Points)
			}
		}
		if rr.Done {
			return nil
		}
	}
}

// simulate fetches a lease's blobs in one request (a shard's raw gzip
// bytes, split in storage order, for shard leases; one ranged batch, in
// read order, for range leases: no lease exceeds MaxBatchPoints) and runs
// them locally. The CPIs go back in the order the blobs came, which is
// the order Coverage.positions gives the coordinator.
func (w *Worker) simulate(ctx context.Context, l *Lease) (*Result, error) {
	t0 := time.Now()
	defer w.body.Release()
	var blobs [][]byte
	var err error
	if l.Kind == LeaseShard {
		blobs, err = w.cl.ShardBlobsInto(ctx, l.Shard, &w.body)
	} else {
		blobs, err = w.cl.FetchBatchInto(ctx, l.Start, l.Count, &w.body)
	}
	if err != nil {
		return nil, err
	}
	if len(blobs) != l.Points {
		return nil, fmt.Errorf("lease covers %d points but fetch returned %d", l.Points, len(blobs))
	}
	fetch := time.Since(t0)

	cpis, rr, err := w.sim.SimBlobsK(blobs, w.cfgs...)
	if err != nil {
		return nil, err
	}
	res := &Result{LeaseID: l.ID, Epoch: l.Epoch, Worker: w.ID}
	for j, col := range res.columns(len(cpis)) {
		*col = cpis[j]
	}
	res.UnknownFetches = rr.UnknownFetches
	res.UnknownLoads = rr.UnknownLoads
	res.CaptureErrors = rr.CaptureErrors
	res.LoadMillis = (fetch + rr.LoadTime).Milliseconds()
	res.SimMillis = rr.SimTime.Milliseconds()
	return res, nil
}
