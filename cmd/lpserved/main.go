// Command lpserved serves a live-point library to remote simulation
// workers over HTTP.
//
//	lpserved -lib gcc.lplib                 # serve on :8147
//	lpserved -lib gcc.lplib -addr :9000
//	lpsim -server http://host:8147          # remote worker pulls points
//
// With -cluster the same process also coordinates a distributed sampling
// run: it issues point leases to lpworker fleets, folds their posted
// partial statistics, applies the §6.1 online stopping rule fleet-wide,
// and reassigns leases from crashed workers. `lpsim -coord URL` polls the
// run for the final fleet-wide estimate.
//
//	lpserved -lib gcc.lplib -cluster -err 0.03      # coordinate to ±3%
//	lpserved -lib gcc.lplib -cluster -matched -memlat 150
//
// The run flags (-config -err -matched -memlat -l2kb -ruu) are lpsim's
// (lpcluster.SpecFlags) and mean the same run: a matched run targets
// ±err/2 on the delta and screens for no impact at ±err, and -err 0 (the
// default here) runs the whole library.
//
// With -journal the cluster run is crash-safe: the run spec and every
// accepted result are appended (and fsynced) to a write-ahead journal
// before they are folded. If the coordinator is killed mid-run —
// SIGKILL included — restarting it with the same flags replays the
// journal and resumes the run with a bit-equal estimate; workers ride
// the restart out and results for pre-restart leases are rejected (410)
// rather than double-counted.
//
//	lpserved -lib gcc.lplib -cluster -err 0.03 -journal run.waj
//
// The library must be the sharded v2 format, so every served library
// supports random access, ranged batch fetch, and raw-shard passthrough
// (stored gzip bytes stream to clients verbatim; the server never
// recompresses). Any other file is refused at start-up with the lpgen
// command that rebuilds it. SIGINT/SIGTERM drain in-flight requests before
// exit.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/sampling"
)

func main() {
	var (
		lib       = flag.String("lib", "", "live-point library path, v2 format (required)")
		addr      = flag.String("addr", ":8147", "listen address")
		drainWait = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")

		cluster     = flag.Bool("cluster", false, "also coordinate a distributed sampling run over this library")
		spec        = lpcluster.SpecFlags(flag.CommandLine, 0)
		leasePoints = flag.Int("lease-points", 0, "cluster: points per range lease (default 64)")
		leaseTTL    = flag.Duration("lease-ttl", 0, "cluster: lease expiry; crashed workers' leases reassign after this (default 60s)")
		journal     = flag.String("journal", "", "cluster: write-ahead run journal; an existing journal resumes its run")
	)
	flag.Parse()
	if *lib == "" {
		log.Fatal("lpserved: -lib is required")
	}
	if *journal != "" && !*cluster {
		log.Fatal("lpserved: -journal requires -cluster")
	}

	st, err := lpstore.Open(*lib)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	stat := st.Stat()
	log.Printf("serving %s (%d points, %d shards, shuffled=%v) on http://%s",
		stat.Benchmark, stat.Points, stat.Shards, stat.Shuffled, l.Addr())
	log.Printf("metrics (Prometheus text format) at http://%s/metrics", l.Addr())

	srv := lpserve.NewServer(st)
	if *cluster {
		opt := lpcluster.Options{
			LeasePoints: *leasePoints,
			LeaseTTL:    *leaseTTL,
		}
		var coord *lpcluster.Coordinator
		var err error
		if *journal != "" {
			coord, err = lpcluster.NewJournaledCoordinator(st, spec(), opt, *journal)
		} else {
			coord, err = lpcluster.NewCoordinator(st, spec(), opt)
		}
		if err != nil {
			log.Fatal(err)
		}
		defer coord.Close()
		coord.Mount(srv)
		log.Printf("coordinating a %s cluster run (err target %v); point lpworker -coord at this address",
			coord.Spec().Mode, coord.Spec().RelErr)
		if epoch := coord.Epoch(); epoch > 0 {
			rs := coord.State()
			log.Printf("resumed run from journal %s: epoch %d, %d/%d points already folded (phase %s)",
				*journal, epoch, rs.Done, rs.Points, rs.Phase)
		}
		go func() {
			<-coord.Done()
			res, _ := coord.Final()
			if coord.Spec().Mode == lpcluster.ModeMatched {
				log.Printf("cluster run done: ΔCPI %+.2f%% from %d pairs in %v (%d leases reassigned)",
					100*res.MP.RelDelta(), res.Processed, res.Elapsed.Round(time.Millisecond), res.Reassigned)
				return
			}
			log.Printf("cluster run done: CPI %.4f ±%.2f%% from %d points in %v (stopped=%v, %d leases reassigned)",
				res.Est.Mean(), 100*res.Est.RelCI(sampling.Z997), res.Processed,
				res.Elapsed.Round(time.Millisecond), res.Stopped, res.Reassigned)
		}()
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-served:
		if err != nil {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("%s: draining (up to %v)...", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			log.Fatal(err)
		}
		log.Print("bye")
	}
}
