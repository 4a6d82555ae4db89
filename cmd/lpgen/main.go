// Command lpgen creates a live-point library for one benchmark.
//
//	lpgen -bench syn.gcc -scale 0.5 -points 500 -o gcc.lplib
//	lpgen -bench syn.mcf -config 16way -restricted -o mcf-r.lplib
//
// The library stores cache and TLB state at the chosen configuration's
// maxima plus one snapshot of its branch predictor; simulations may later
// use any configuration within those bounds (§4.3).
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
		bench      = flag.String("bench", "syn.gcc", "benchmark name (see suite in DESIGN.md)")
		scale      = flag.Float64("scale", 0.5, "benchmark length scale factor")
		points     = flag.Int("points", 500, "maximum live-points in the library")
		configName = flag.String("config", "8way", "maximum configuration: 8way or 16way")
		restricted = flag.Bool("restricted", false, "restricted live-state (Figure 5 ablation)")
		out        = flag.String("o", "", "output library path (default <bench>.lplib)")
	)
	flag.Parse()

	cfg, err := uarch.ConfigByName(*configName)
	if err != nil {
		log.Fatal(err)
	}
	path := *out
	if path == "" {
		path = *bench + ".lplib"
	}

	log.Printf("generating %s at scale %.2f...", *bench, *scale)
	p := livepoints.GenerateBenchmark(*bench, *scale)
	design, err := livepoints.NewDesignFor(p, cfg, *points)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("creating %d live-points (max config %s)...", design.Units(), cfg.Name)

	t0 := time.Now()
	opts := livepoints.CreateOpts{MaxHier: cfg.Hier, Preds: []livepoints.PredictorConfig{cfg.BP}, Restricted: *restricted}
	info, err := livepoints.CreateLibraryOpts(p, design, opts, path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d live-points in %d shards, %.1f MB compressed (%.1f KB/point, %.1fx gzip), created in %v\n",
		info.Path, info.Points, info.Shards,
		float64(info.CompressedBytes)/(1<<20),
		float64(info.CompressedBytes)/1024/float64(info.Points),
		float64(info.UncompressedBytes)/float64(info.CompressedBytes),
		time.Since(t0).Round(time.Millisecond))
}
