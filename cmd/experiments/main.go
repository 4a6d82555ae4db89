// Command experiments regenerates the paper's tables and figures: the
// entries of harness.Artifacts that -exp selects, each printed with its
// headline numbers beside the paper's.
//
// Usage:
//
//	experiments -exp all                       # everything, full suite
//	experiments -exp table2 -bench syn.mcf     # one experiment, one benchmark
//	experiments -exp fig4,fig5 -scale 0.1      # quick pass at reduced scale
//
// See DESIGN.md §4 for the experiment index. An unknown -exp name is an
// error (exit 2) that lists the known ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"livepoints/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(harness.Keys(), ",")+",all")
		out      = flag.String("out", "out", "output directory for libraries and caches")
		scale    = flag.Float64("scale", 0.5, "benchmark length scale factor")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default: full suite)")
		maxLib   = flag.Int("maxlib", 500, "maximum live-points per library")
		offsets  = flag.Int("offsets", 2, "independent sample offsets for bias averaging")
		parallel = flag.Int("parallel", 8, "concurrent benchmark-level workers")
		verbose  = flag.Bool("v", false, "log progress to stderr")
	)
	flag.Parse()

	artifacts, err := harness.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	ctx := harness.NewContext(*out, *scale)
	ctx.MaxLibPoints = *maxLib
	ctx.Offsets = *offsets
	ctx.Parallel = *parallel
	if *benches != "" {
		ctx.Benches = strings.Split(*benches, ",")
	}
	if *verbose {
		ctx.Log = os.Stderr
	}
	for _, a := range artifacts {
		t, err := a.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", a.Name, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s", t)
	}
}
