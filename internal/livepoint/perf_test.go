package livepoint

import (
	"bytes"
	"errors"
	"testing"

	"livepoints/internal/mrrl"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// TestDecodeIntoSteadyStateZeroAllocs is the allocation-regression gate on
// the tentpole claim: once a reused LivePoint has seen the library's
// largest point, decoding rotates through existing backing storage and the
// steady state performs zero heap allocations per point.
func TestDecodeIntoSteadyStateZeroAllocs(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 40, false)
	blobs := make([][]byte, len(points))
	for i, p := range points {
		blobs[i], _ = Encode(p)
	}
	var lp LivePoint
	// Warm-up pass: grow every slice to the library maximum.
	for _, blob := range blobs {
		if err := DecodeInto(&lp, blob); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(3*len(blobs), func() {
		if err := DecodeInto(&lp, blobs[i%len(blobs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f objects per point, want 0", allocs)
	}
}

// TestPassAddZeroAllocs: a pass's per-point fold (counters, the k CPIs
// into sampling.Columns, the rule's verdict) allocates nothing, under one
// configuration or a matched pair.
func TestPassAddZeroAllocs(t *testing.T) {
	cfg := uarch.Config8Way()
	for _, cfgs := range [][]uarch.Config{{cfg}, {cfg, cfg}} {
		k := len(cfgs)
		rule := sampling.Rule{Z: sampling.Z997, RelErr: 1e-9, NoImpact: 1e-9}
		p := &pass{cfgs: cfgs, rule: rule, cols: sampling.NewColumns(k, rule, false), row: make([]float64, k)}
		wrs := make([]warm.WindowResult, k)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			for j := range wrs {
				wrs[j].UnitCPI = 1 + 0.01*float64((i+j)%7)
			}
			i++
			p.add(wrs)
		})
		if allocs != 0 {
			t.Fatalf("k=%d: pass.add allocates %.1f objects per point, want 0", k, allocs)
		}
	}
}

// TestDecodeIntoReuseRoundTrip interleaves decodes of structurally
// different points (different benchmarks, sizes, and restriction) through
// one reused LivePoint and re-encodes after each: any state leaking across
// decodes would corrupt the re-encoding.
func TestDecodeIntoReuseRoundTrip(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, big := buildTestLibrary(t, "syn.gcc", 0.01, cfg, 30, false)
	_, _, small := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, true)
	seq := []*LivePoint{big[0], small[0], big[1], small[1], big[0]}
	var lp LivePoint
	for i, p := range seq {
		blob, _ := Encode(p)
		if err := DecodeInto(&lp, blob); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		re, _ := Encode(&lp)
		if !bytes.Equal(re, blob) {
			t.Fatalf("decode %d into reused point did not re-encode identically (%d vs %d bytes)", i, len(re), len(blob))
		}
	}
}

// buildAWLibrary creates architectural-only AW-MRRL checkpoints
// (NoMicroarch + the MRRL analysis's per-window functional-warming
// lengths): the points whose simulation warms cold structures through the
// functional CPU before the detailed window.
func buildAWLibrary(t *testing.T, name string, scale float64, cfg uarch.Config, stride int) []*LivePoint {
	t.Helper()
	p, design := testDesign(t, name, scale, cfg, stride)
	an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
	if err != nil {
		t.Fatal(err)
	}
	var points []*LivePoint
	err = Create(p, design, CreateOpts{NoMicroarch: true, FuncWarmLens: an.WarmLens}, func(lp *LivePoint) error {
		points = append(points, lp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	warmed := 0
	for _, lp := range points {
		if lp.FuncWarm > 0 {
			warmed++
		}
	}
	if warmed < 2 {
		t.Fatalf("AW-MRRL library has %d of %d points with FuncWarm > 0; the functional-warming branch would go unexercised", warmed, len(points))
	}
	return points
}

// TestArenaSimulateBitEqual pins the arena contract: reusing hierarchy,
// predictor, text, overlay, and CPU across points must be bit-identical to
// building them fresh (Simulate, a throwaway arena per point) — for full
// live-state, for the restricted-live-state garbage fill, and for AW-MRRL
// checkpoints whose functional warming runs on the arena's reused CPU.
// The three kinds are interleaved so every point follows one of a
// different kind through the same arena.
func TestArenaSimulateBitEqual(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, full := buildTestLibrary(t, "syn.gcc", 0.01, cfg, 30, false)
	_, _, restricted := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 40, true)
	aw := buildAWLibrary(t, "syn.mcf", 0.01, cfg, 40)
	var points []*LivePoint
	for i := 0; i < len(full) || i < len(restricted) || i < len(aw); i++ {
		for _, lib := range [][]*LivePoint{full, restricted, aw} {
			if i < len(lib) {
				points = append(points, lib[i])
			}
		}
	}
	var arena SimArena
	for i, p := range points {
		want, err := Simulate(p, cfg)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		got, err := arena.Simulate(p, cfg)
		if err != nil {
			t.Fatalf("point %d (arena): %v", i, err)
		}
		if got != want {
			t.Fatalf("point %d: arena CPI %.17g stats %+v != fresh CPI %.17g stats %+v",
				i, got.UnitCPI, got.Stats, want.UnitCPI, want.Stats)
		}
	}
}

// TestArenaSimulateReusesState checks that a kept arena actually removes
// the per-point fixed allocations a throwaway one (Simulate) pays.
func TestArenaSimulateReusesState(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, points := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, false)
	p := points[0]
	fresh := testing.AllocsPerRun(3, func() {
		if _, err := Simulate(p, cfg); err != nil {
			t.Fatal(err)
		}
	})
	var arena SimArena
	if _, err := arena.Simulate(p, cfg); err != nil {
		t.Fatal(err)
	}
	reused := testing.AllocsPerRun(3, func() {
		if _, err := arena.Simulate(p, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if reused > fresh/2 {
		t.Fatalf("arena Simulate allocates %.0f objects per point vs %.0f fresh; arena reuse is not working", reused, fresh)
	}
	t.Logf("allocations per point: fresh %.0f, arena %.0f", fresh, reused)
}

// TestSerialEstimateMatchesSimBlobs: the serial runner and the cluster
// worker kernel process points in the same deterministic order, so their
// estimates must agree bitwise — the cluster path is a distribution detail,
// never a numerics change.
func TestSerialEstimateMatchesSimBlobs(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	blobs := encodeAll(points)
	const path = "lib.lplib"
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	openFiles(t, map[string]*fakeSource{path: {meta: meta, blobs: blobs}})
	serial, err := RunFile(path, RunOpts{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	_, bres, err := SimBlobs(blobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Est.Mean() != bres.Est.Mean() || serial.Processed != bres.Processed {
		t.Fatalf("serial mean %.17g (n=%d) != SimBlobs mean %.17g (n=%d)",
			serial.Est.Mean(), serial.Processed, bres.Est.Mean(), bres.Processed)
	}
}

// closeFails is a source that serves its blobs and then fails to close —
// where a source reports a check it could only finish after the last read.
type closeFails struct{ fakeSource }

func (*closeFails) Close() error { return errors.New("stream trailer did not verify") }

// TestCloseSurfacesTrailerCorruption: the file runners own the source they
// open, so they must hand its Close error back. A whole-library run that
// drained a source which then fails verification folded its estimate from
// data that cannot be vouched for; reporting it as good is the one outcome
// not allowed.
func TestCloseSurfacesTrailerCorruption(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, false)
	meta := Meta{Benchmark: "syn.gzip", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	setOpener(t, func(string) (Source, error) {
		return &closeFails{fakeSource{meta: meta, blobs: encodeAll(points)}}, nil
	})

	if res, err := RunFile("lib.lplib", RunOpts{Cfg: cfg}); err == nil {
		t.Fatalf("RunFile returned an estimate from %d points and dropped the close error", res.Processed)
	}
	if res, err := RunMatchedFile("lib.lplib", MatchedOpts{Base: cfg, Exp: cfg}); err == nil {
		t.Fatalf("RunMatchedFile returned %d pairs and dropped the close error", res.Processed)
	}
}
