// Command lpsim runs sampling experiments from a live-point library — a
// local file or a remote lpserved instance.
//
//	lpsim -lib gcc.lplib                          # absolute CPI to ±3% @ 99.7%
//	lpsim -lib gcc.lplib -parallel 8              # goroutine-parallel
//	lpsim -server http://host:8147 -parallel 8    # pull from lpserved
//	lpsim -lib gcc.lplib -matched -memlat 150     # matched-pair comparison
//	lpsim -coord http://host:8147                 # watch a cluster run
//	lpsim -lib gcc.lplib -cpuprofile cpu.prof     # profile the run (go tool pprof)
//
// Results and their confidence are reported online as the (shuffled)
// library streams in; the run stops as soon as the target is met (§6.1).
// The run flags (-config -err -matched -memlat -l2kb -ruu) are
// lpcluster.SpecFlags, shared with lpserved -cluster: a matched run
// targets ±err/2 on the delta and screens for no impact at ±err, and
// -err 0 runs the whole library.
// With -coord, the simulation happens on an lpworker fleet instead:
// lpsim polls the coordinator (lpserved -cluster) and reports the
// fleet-wide result when the run completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"runtime/pprof"
	"time"

	"livepoints"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
)

func main() {
	var (
		lib        = flag.String("lib", "", "live-point library path")
		server     = flag.String("server", "", "lpserved base URL (e.g. http://host:8147); alternative to -lib")
		coord      = flag.String("coord", "", "cluster coordinator base URL; report the fleet-wide run instead of simulating locally")
		spec       = lpcluster.SpecFlags(flag.CommandLine, 0.03)
		parallel   = flag.Int("parallel", 1, "simulation workers")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	modes := 0
	for _, m := range []string{*lib, *server, *coord} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		log.Fatal("lpsim: exactly one of -lib, -server, or -coord is required")
	}
	if *coord != "" {
		watchCluster(*coord)
		return
	}

	// The flags describe a run exactly as lpserved -cluster's do.
	run := spec()
	if run.Mode == lpcluster.ModeMatched && *parallel > 1 {
		log.Printf("lpsim: a matched run folds its points serially and already simulates its two configurations side by side; -parallel %d is ignored", *parallel)
	}
	// Refuse a machine that cannot be built before touching the library.
	cfgs, err := run.Configs()
	if err != nil {
		log.Fatalf("lpsim: %v", err)
	}
	rule := run.Rule()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Print(err)
			}
		}()
	}

	var src livepoints.Source
	if *server != "" {
		client, err := livepoints.Connect(*server)
		if err != nil {
			log.Fatal(err)
		}
		stat := client.Stat()
		log.Printf("connected to %s: %s, %d points in %d shards", *server, stat.Benchmark, stat.Points, stat.Shards)
		src = client.Source()
	} else {
		if src, err = livepoint.OpenSource(*lib); err != nil {
			log.Fatal(err)
		}
	}

	t0 := time.Now()
	if len(cfgs) == 2 {
		res, err := livepoints.RunMatchedSource(src, livepoints.MatchedOpts{
			Base: cfgs[0], Exp: cfgs[1], Z: rule.Z, RelErr: rule.RelErr, NoImpactThreshold: rule.NoImpact,
		})
		closeSource(src, err)
		fmt.Printf("ΔCPI = %+.2f%% of baseline (base %.4f -> exp %.4f) from %d pairs in %v\n",
			100*res.MP.RelDelta(), res.MP.Base.Mean(), res.MP.Exp.Mean(),
			res.Processed, time.Since(t0).Round(time.Millisecond))
		printTally(res.Tally)
		fmt.Printf("matched-pair sample-size reduction vs absolute: %.1fx\n", res.MP.SampleSizeReduction())
		if res.StoppedNoImpact {
			fmt.Printf("verdict: no appreciable impact (<%g%% CPI change), screened early\n", 100*rule.NoImpact)
		}
		return
	}

	res, err := livepoints.RunSource(src, livepoints.RunOpts{Cfg: cfgs[0], Z: rule.Z, RelErr: rule.RelErr, Parallel: *parallel})
	closeSource(src, err)
	fmt.Printf("CPI = %.4f ±%.2f%% (99.7%% confidence) from %d live-points in %v\n",
		res.Est.Mean(), 100*res.Est.RelCI(livepoints.Z997), res.Processed,
		time.Since(t0).Round(time.Millisecond))
	printTally(res.Tally)
}

// printTally prints an absolute or matched run's load/sim split and counters.
func printTally(t livepoint.Tally) {
	fmt.Printf("load %v, simulate %v; wrong-path unknown loads/window: %.3f (capture errors: %d)\n",
		t.LoadTime.Round(time.Millisecond), t.SimTime.Round(time.Millisecond),
		float64(t.UnknownLoads)/float64(t.Processed), t.CaptureErrors)
}

// closeSource closes the library and exits on the run's error or, when the
// run succeeded, on the close error: a source may finish verifying what it
// served only at Close.
func closeSource(src livepoints.Source, runErr error) {
	if err := src.Close(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// watchCluster polls a coordinator's run state until the fleet finishes,
// emitting a structured (logfmt) progress line per change — fold rate,
// live confidence interval against its target, ETA on whole-library
// runs — then prints the folded result in the same shape as a local run.
func watchCluster(url string) {
	ctx := context.Background()
	cl, err := lpserve.DialContext(ctx, url)
	if err != nil {
		log.Fatal(err)
	}
	var st lpcluster.RunState
	if err := cl.DoJSON(ctx, http.MethodGet, "/v1/run", nil, &st); err != nil {
		log.Fatal(err)
	}
	log.Printf("watching %s cluster run at %s: %d points, target err %v",
		st.Spec.Mode, url, st.Points, st.Spec.RelErr)

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	lastDone := -1
	for st.Phase != lpcluster.PhaseDone {
		if st.Done != lastDone {
			logger.Info("fleet progress", st.Progress()...)
			lastDone = st.Done
		}
		time.Sleep(500 * time.Millisecond)
		if err := cl.DoJSON(ctx, http.MethodGet, "/v1/run", nil, &st); err != nil {
			log.Fatal(err)
		}
	}

	elapsed := (time.Duration(st.ElapsedMillis) * time.Millisecond).Round(time.Millisecond)
	if st.Spec.Mode == lpcluster.ModeMatched {
		fmt.Printf("ΔCPI = %+.2f%% of baseline (base %.4f -> exp %.4f) from %d pairs in %v across the fleet\n",
			100*st.RelDelta, st.BaseMean, st.ExpMean, st.N, elapsed)
		if st.StoppedNoImpact {
			fmt.Println("verdict: no appreciable impact, screened early")
		}
		return
	}
	fmt.Printf("CPI = %.4f ±%.2f%% (99.7%% confidence) from %d live-points in %v across the fleet\n",
		st.Mean, 100*st.RelCI, st.N, elapsed)
	fmt.Printf("fleet load %v, simulate %v; %d leases reassigned after worker loss\n",
		(time.Duration(st.LoadMillis) * time.Millisecond).Round(time.Millisecond),
		(time.Duration(st.SimMillis) * time.Millisecond).Round(time.Millisecond),
		st.Reassigned)
}
