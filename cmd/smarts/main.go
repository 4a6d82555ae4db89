// Command smarts runs the full-warming (SMARTS) reference simulator over a
// benchmark: the technique live-points accelerate. Useful for validating a
// library against its baseline and for feeling the functional-warming
// bottleneck first-hand.
//
//	smarts -bench syn.gcc -scale 0.5
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"livepoints"
	"livepoints/internal/uarch"
)

func main() {
	var (
		bench      = flag.String("bench", "syn.gcc", "benchmark name")
		scale      = flag.Float64("scale", 0.5, "benchmark length scale factor")
		points     = flag.Int("points", 500, "measurement units")
		configName = flag.String("config", "8way", "configuration: 8way or 16way")
		full       = flag.Bool("complete", false, "also run complete detailed simulation for comparison")
	)
	flag.Parse()

	cfg, err := uarch.ConfigByName(*configName)
	if err != nil {
		log.Fatal(err)
	}

	p := livepoints.GenerateBenchmark(*bench, *scale)
	design, err := livepoints.NewDesignFor(p, cfg, *points)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("SMARTS over %s: %d units of %d instructions...", *bench, design.Units(), design.UnitLen)
	t0 := time.Now()
	res, err := livepoints.SMARTS(cfg, p, design)
	if err != nil {
		log.Fatal(err)
	}
	total := time.Since(t0)
	fmt.Printf("CPI = %.4f ±%.2f%% (99.7%%) from %d units in %v\n",
		res.Est.Mean(), 100*res.Est.RelCI(livepoints.Z997), res.Est.N(), total.Round(time.Millisecond))
	fmt.Printf("functional warming: %d instructions, %v (%.1f%% of runtime)\n",
		res.FuncWarmInsts, res.FuncWarmTime.Round(time.Millisecond),
		100*res.FuncWarmTime.Seconds()/total.Seconds())
	fmt.Printf("detailed windows:   %d instructions, %v\n",
		res.DetailedInsts, res.DetailedTime.Round(time.Millisecond))

	if *full {
		t0 = time.Now()
		truth, err := livepoints.CompleteSimulation(cfg, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("complete simulation: CPI %.4f in %v; SMARTS error %+.2f%%\n",
			truth, time.Since(t0).Round(time.Millisecond), 100*(res.Est.Mean()-truth)/truth)
	}
}
