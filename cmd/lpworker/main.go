// Command lpworker is one node of a distributed sampling fleet: it pulls
// simulation leases from a cluster coordinator (lpserved -cluster),
// fetches the leased live-points over the same HTTP listener, simulates
// them locally, and posts per-point results back until the coordinator
// declares the run done.
//
//	lpworker -coord http://host:8147                # one puller
//	lpworker -coord http://host:8147 -parallel 8    # eight pullers
//
// Workers are stateless and crash-safe: a worker that dies mid-lease is
// simply outwaited — the coordinator reassigns its lease after the TTL.
// The reverse also holds: if the coordinator dies, workers back off with
// jitter and resume pulling when it returns (a journaled coordinator
// restart rejects their stale leases with 410, which they shrug off).
//
// The first SIGINT/SIGTERM drains gracefully: each puller finishes and
// posts its in-flight lease, acquires nothing new, and exits. A second
// signal aborts immediately, discarding in-flight work (the coordinator
// reassigns those leases after the TTL).
//
// While pulling, the process emits a structured (logfmt) fleet-progress
// line every -progress interval — points folded fleet-wide, fold rate,
// the live confidence interval against its target, and the ETA on
// whole-library runs — read straight from the coordinator's GET /v1/run.
// -v adds a debug line per completed lease.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"livepoints/internal/faultinject"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/obs"
)

func main() {
	var (
		coord    = flag.String("coord", "", "coordinator base URL (required), e.g. http://host:8147")
		parallel = flag.Int("parallel", 1, "concurrent lease pullers in this process")
		id       = flag.String("id", "", "worker id reported in leases (default host-pid)")
		progress = flag.Duration("progress", 10*time.Second, "fleet progress report interval (0 disables)")
		verbose  = flag.Bool("v", false, "log every completed lease")
		chaos    = flag.Uint64("chaos", 0, "seed deterministic fault injection into this worker's coordinator traffic (testing only; 0 disables)")
	)
	flag.Parse()
	if *coord == "" {
		log.Fatal("lpworker: -coord is required")
	}
	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cl, err := lpserve.DialContext(ctx, *coord)
	if err != nil {
		log.Fatal(err)
	}
	stat := cl.Stat()
	log.Printf("pulling leases from %s (%s, %d points, %d shards)",
		*coord, stat.Benchmark, stat.Points, stat.Shards)
	if *chaos != 0 {
		// Injected after the dial so startup sees the real coordinator;
		// from here on every exchange rolls against the seeded schedule.
		sched := faultinject.NewSchedule(*chaos, faultinject.DefaultRates(3*time.Second))
		cl.SetTransport(&faultinject.Transport{Base: http.DefaultTransport, Sched: sched})
		log.Printf("chaos: fault injection armed with seed %#x — results remain exact, expect noisy logs", *chaos)
	}

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level, "lpworker")

	t0 := time.Now()
	workers := make([]*lpcluster.Worker, *parallel)
	var wg sync.WaitGroup
	errs := make(chan error, *parallel)
	for i := range workers {
		w := lpcluster.NewWorker(fmt.Sprintf("%s/%d", *id, i), cl)
		w.Log = logger
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				errs <- err
			}
		}()
	}
	// Two-stage signal handling: the first signal drains (finish and post
	// the in-flight lease, take nothing new), a second one hard-cancels.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("%s: draining — finishing in-flight leases (signal again to abort)", s)
		for _, w := range workers {
			w.Drain()
		}
		s = <-sig
		log.Printf("%s: aborting", s)
		cancel()
	}()
	if *progress > 0 {
		go reportProgress(ctx, cl, logger, *progress)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		if ctx.Err() != nil {
			log.Printf("interrupted: %v", err)
		} else {
			log.Fatal(err)
		}
	}

	var leases, points, expired, reconnects int
	for _, w := range workers {
		leases += w.Leases
		points += w.Points
		expired += w.Expired
		reconnects += w.Reconnects
	}
	log.Printf("done: %d leases, %d points simulated (%d leases lost to expiry, %d coordinator outages ridden out) in %v",
		leases, points, expired, reconnects, time.Since(t0).Round(time.Millisecond))
}

// reportProgress polls the coordinator's run state and logs one logfmt
// progress line per interval until the run finishes or ctx is cancelled.
func reportProgress(ctx context.Context, cl *lpserve.Client, logger *obs.Logger, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var st lpcluster.RunState
		if err := cl.DoJSON(ctx, http.MethodGet, "/v1/run", nil, &st); err != nil {
			logger.Warn("progress poll failed", "err", err)
			continue
		}
		if st.Phase == lpcluster.PhaseDone {
			return
		}
		logger.Info("fleet progress", st.Progress()...)
	}
}
