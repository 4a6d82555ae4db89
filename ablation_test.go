// Ablation benches for the design decisions DESIGN.md §5 calls out:
// CSR-versus-MTR storage, text-padding sensitivity of the wrong-path
// approximation, and gzip's contribution to library size.
package livepoints_test

import (
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/csr"
	"livepoints/internal/functional"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// BenchmarkAblationCSRvsMTR quantifies the §4.3 storage trade-off on a
// real warming pass: CSR cost is capped by the captured cache's tag array,
// MTR cost tracks the application footprint.
func BenchmarkAblationCSRvsMTR(b *testing.B) {
	spec, err := prog.ByName("syn.mcf")
	if err != nil {
		b.Fatal(err)
	}
	p := prog.Generate(spec, 0.05)
	cfg := uarch.Config8Way()

	for i := 0; i < b.N; i++ {
		hier := cache.NewHier(cfg.Hier)
		mtr := csr.NewMTR(cfg.Hier.L2.LineBytes)
		cpu := functional.New(p, p.NewMemory())
		cpu.Warm = &warm.Warmer{
			H:     hier,
			OnMem: func(addr uint64, write bool) { mtr.Touch(addr, write) },
		}
		if _, err := cpu.Run(400_000); err != nil {
			b.Fatal(err)
		}
		sr := csr.Capture(hier.L2)
		b.ReportMetric(float64(sr.StorageBytes())/1024, "CSR-KB")
		b.ReportMetric(float64(mtr.StorageBytes())/1024, "MTR-KB")
	}
}

// BenchmarkAblationTextPad measures how the stored-text padding (which
// covers wrong-path fetch) trades live-point size against unknown-fetch
// events during simulation.
func BenchmarkAblationTextPad(b *testing.B) {
	cfg := uarch.Config8Way()
	spec, err := prog.ByName("syn.gcc")
	if err != nil {
		b.Fatal(err)
	}
	p := prog.Generate(spec, 0.02)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	design.Positions = design.Positions[:min(8, len(design.Positions))]

	for _, pad := range []int{4, 32, 128} {
		b.Run(byteCount(pad), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var bytes, unknown int
				opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}, TextPad: pad}
				err := livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
					blob, bd := livepoint.Encode(lp)
					_ = blob
					bytes += bd.Text
					wr, err := livepoint.Simulate(lp, cfg)
					if err != nil {
						return err
					}
					unknown += int(wr.Stats.UnknownFetches)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(bytes)/float64(len(design.Positions))/1024, "textKB/pt")
				b.ReportMetric(float64(unknown)/float64(len(design.Positions)), "unkFetch/pt")
			}
		})
	}
}

// BenchmarkAblationGzip measures the compression ratio the paper relies on
// ("we typically obtain 5:1 compression with gzip", §7.1).
func BenchmarkAblationGzip(b *testing.B) {
	cfg := uarch.Config8Way()
	spec, err := prog.ByName("syn.bzip2")
	if err != nil {
		b.Fatal(err)
	}
	p := prog.Generate(spec, 0.02)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	design.Positions = design.Positions[:min(6, len(design.Positions))]

	for i := 0; i < b.N; i++ {
		var raw int64
		var blobs [][]byte
		opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
		err := livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
			blob, _ := livepoint.Encode(lp)
			raw += int64(len(blob))
			blobs = append(blobs, blob)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		path := dir + "/lib.lplib"
		meta := livepoint.Meta{Benchmark: p.Name, UnitLen: design.UnitLen, WarmLen: design.WarmLen}
		info, err := lpstore.Write(path, meta, blobs, lpstore.WriteOpts{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(raw)/float64(info.CompressedBytes), "gzip-ratio")
	}
}

func byteCount(pad int) string {
	switch pad {
	case 4:
		return "pad4"
	case 32:
		return "pad32"
	default:
		return "pad128"
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
