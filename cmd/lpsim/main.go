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
// With -coord, the simulation happens on an lpworker fleet instead:
// lpsim polls the coordinator (lpserved -cluster) and reports the
// fleet-wide result when the run completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime/pprof"
	"time"

	"livepoints"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/obs"
)

func main() {
	var (
		lib        = flag.String("lib", "", "live-point library path")
		server     = flag.String("server", "", "lpserved base URL (e.g. http://host:8147); alternative to -lib")
		coord      = flag.String("coord", "", "cluster coordinator base URL; report the fleet-wide run instead of simulating locally")
		configName = flag.String("config", "8way", "simulated configuration: 8way or 16way")
		relErr     = flag.Float64("err", 0.03, "relative error target (0 = process whole library)")
		parallel   = flag.Int("parallel", 1, "simulation workers")
		matched    = flag.Bool("matched", false, "matched-pair comparison against a modified configuration")
		memLat     = flag.Int("memlat", 0, "matched: override memory latency")
		l2KB       = flag.Int("l2kb", 0, "matched: override L2 size (KB, must be within library max)")
		ruu        = flag.Int("ruu", 0, "matched: override RUU size")
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

	// The flags describe a run the way a cluster's do. A local matched run
	// halves the target (the half-width is on a delta) and always screens
	// for no impact at 3 %; lpserved -cluster -matched does neither.
	spec := lpcluster.RunSpec{Config: *configName, Z: livepoints.Z997, RelErr: *relErr}
	if *matched {
		spec.Mode = lpcluster.ModeMatched
		spec.RelErr, spec.NoImpactThreshold = *relErr/2, 0.03
		spec.MemLat, spec.L2KB, spec.RUU = *memLat, *l2KB, *ruu
		if *parallel > 1 {
			log.Printf("lpsim: a matched run is serial; -parallel %d is ignored", *parallel)
		}
	}
	// Refuse a machine that cannot be built before touching the library.
	cfg, exp, err := spec.Configs()
	if err != nil {
		log.Fatalf("lpsim: %v", err)
	}
	rule := spec.Rule()

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

	if *matched {
		opts := livepoints.MatchedOpts{
			Base: cfg, Exp: exp,
			Z: rule.Z, RelErr: rule.RelErr, NoImpactThreshold: rule.NoImpact,
		}
		t0 := time.Now()
		res, err := livepoints.RunMatchedSource(src, opts)
		closeSource(src, err)
		fmt.Printf("ΔCPI = %+.2f%% of baseline (base %.4f -> exp %.4f) from %d pairs in %v\n",
			100*res.MP.RelDelta(), res.MP.Base.Mean(), res.MP.Exp.Mean(),
			res.Processed, time.Since(t0).Round(time.Millisecond))
		fmt.Printf("matched-pair sample-size reduction vs absolute: %.1fx\n", res.MP.SampleSizeReduction())
		if res.StoppedNoImpact {
			fmt.Println("verdict: no appreciable impact (<3% CPI change), screened early")
		}
		return
	}

	opts := livepoints.RunOpts{
		Cfg: cfg, Z: rule.Z, RelErr: rule.RelErr, Parallel: *parallel,
	}
	t0 := time.Now()
	res, err := livepoints.RunSource(src, opts)
	closeSource(src, err)
	fmt.Printf("CPI = %.4f ±%.2f%% (99.7%% confidence) from %d live-points in %v\n",
		res.Est.Mean(), 100*res.Est.RelCI(livepoints.Z997), res.Processed,
		time.Since(t0).Round(time.Millisecond))
	fmt.Printf("load %v, simulate %v; wrong-path unknown loads/window: %.3f (capture errors: %d)\n",
		res.LoadTime.Round(time.Millisecond), res.SimTime.Round(time.Millisecond),
		float64(res.UnknownLoads)/float64(res.Processed), res.CaptureErrors)
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

	logger := obs.NewLogger(os.Stderr, obs.LevelInfo, "lpsim")
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
