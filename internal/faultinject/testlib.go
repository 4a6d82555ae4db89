package faultinject

import (
	"path/filepath"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// GenLibrary captures a small real (simulatable) shuffled v2 library
// into dir and returns its path — the same recipe the cluster tests use,
// exported so soak harnesses outside this package (and outside the
// lpcluster test package, which cannot be imported) can build a library
// that exercises the full live-point load/simulate path. Creation runs a
// complete functional pass, so callers should build once and share.
func GenLibrary(dir string) (string, error) {
	cfg := uarch.Config8Way()
	spec, err := prog.ByName("syn.gzip")
	if err != nil {
		return "", err
	}
	p := prog.Generate(spec, 0.01)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		return "", err
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 2, 1)
	if err != nil {
		return "", err
	}
	opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
	path := filepath.Join(dir, "lib.lplib")
	if _, err := lpstore.Create(path, p, design, opts, 0x5EED, lpstore.WriteOpts{ShardPoints: 5}); err != nil {
		return "", err
	}
	return path, nil
}
