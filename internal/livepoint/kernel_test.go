package livepoint

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"livepoints/internal/uarch"
)

// atLeastProcs raises GOMAXPROCS to n for the rest of the test, so that a
// kernel of n configurations runs each on its own goroutine even on a
// smaller machine.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// kernelConfigs returns three distinct configurations every test library
// can be reconstructed under: the 8-way baseline, twice its memory latency
// and half its window.
func kernelConfigs() []uarch.Config {
	base := uarch.Config8Way()
	slow, narrow := base, base
	slow.Name, slow.Hier.MemLat = "memlat x2", 2*base.Hier.MemLat
	narrow.Name, narrow.RUUSize, narrow.LSQSize = "window /2", base.RUUSize/2, base.LSQSize/2
	return []uarch.Config{base, slow, narrow}
}

// TestKernelMatchesIndependentSimBlobs: k configurations simulated side
// by side give every column the CPIs k independent one-configuration runs
// give, bit for bit, and the baseline's wrong-path counters, whether the
// kernel has one goroutine or one per configuration. One BlobSim serves
// every call, so its kernel also grows from two arenas to three.
func TestKernelMatchesIndependentSimBlobs(t *testing.T) {
	cfgs := kernelConfigs()
	_, _, points := buildTestLibrary(t, "syn.gcc", 0.01, cfgs[0], 20, false)
	blobs := encodeAll(points)
	want := make([][]float64, len(cfgs))
	_, baseRes, err := SimBlobs(blobs, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for j, cfg := range cfgs {
		if want[j], _, err = SimBlobs(blobs, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Equal(want[0], want[1]) || slices.Equal(want[0], want[2]) {
		t.Fatal("the configurations do not differ in CPI; the test cannot tell columns apart")
	}

	atLeastProcs(t, len(cfgs))
	var s BlobSim
	for _, procs := range []int{1, len(cfgs)} {
		prev := runtime.GOMAXPROCS(procs)
		for k := 2; k <= len(cfgs); k++ {
			cpis, res, err := s.SimBlobsK(blobs, cfgs[:k]...)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, k=%d: %v", procs, k, err)
			}
			for j := range k {
				if !slices.Equal(cpis[j], want[j]) {
					t.Errorf("GOMAXPROCS %d, k=%d: column %d (%s) differs from its own SimBlobs run", procs, k, j, cfgs[j].Name)
				}
			}
			if res.Processed != baseRes.Processed || res.Est.Mean() != baseRes.Est.Mean() ||
				res.UnknownFetches != baseRes.UnknownFetches || res.UnknownLoads != baseRes.UnknownLoads ||
				res.CaptureErrors != baseRes.CaptureErrors {
				t.Errorf("GOMAXPROCS %d, k=%d: %d points, mean %.17g, %d/%d/%d; the baseline alone: %d points, mean %.17g, %d/%d/%d",
					procs, k, res.Processed, res.Est.Mean(), res.UnknownFetches, res.UnknownLoads, res.CaptureErrors,
					baseRes.Processed, baseRes.Est.Mean(), baseRes.UnknownFetches, baseRes.UnknownLoads, baseRes.CaptureErrors)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestKernelNamesFailingConfig: when configurations fail on a helper
// goroutine, the error returned is the lowest-indexed failing one's, in
// the kernel's own wording, and a baseline that succeeds does not hide it.
func TestKernelNamesFailingConfig(t *testing.T) {
	cfgs := kernelConfigs()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.005, cfgs[0], 40, false)
	blobs := encodeAll(points)
	// A predictor the library stored no snapshot of: Validate accepts it,
	// reconstruction fails.
	bad := func(name string) uarch.Config {
		c := cfgs[0]
		c.Name, c.BP.Name = name, "unstored"
		return c
	}
	atLeastProcs(t, 3)
	for _, tc := range [][]uarch.Config{
		{cfgs[0], bad("bad one")},
		{cfgs[0], bad("bad one"), cfgs[2]},
		{cfgs[0], bad("bad one"), bad("bad two")},
	} {
		var s BlobSim
		_, _, err := s.SimBlobsK(blobs, tc...)
		want := fmt.Sprintf("livepoint: point %d, config %q: ", points[0].Index, "bad one")
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("k=%d: error %v, want one starting %q", len(tc), err, want)
		}
	}

	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	_, err := RunMatchedSource(&fakeSharded{meta: meta, blobs: blobs}, MatchedOpts{Base: cfgs[0], Exp: bad("bad one")})
	if err == nil || !strings.Contains(err.Error(), `config "bad one"`) {
		t.Errorf("matched run with a failing experimental configuration: %v", err)
	}
}

// TestKernelJoinsHelpers: a pass's helper goroutines are gone once it
// returns, whether it folded the whole library, failed in simulation or in
// decode, or stopped early.
func TestKernelJoinsHelpers(t *testing.T) {
	cfgs := kernelConfigs()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.005, cfgs[0], 40, false)
	blobs := encodeAll(points)
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	src := func(blobs [][]byte) Source { return &fakeSharded{meta: meta, blobs: blobs} }
	unstored := cfgs[1]
	unstored.BP.Name = "unstored"
	broken := append(slices.Clone(blobs[:3]), []byte("not a live point"))

	atLeastProcs(t, 3)
	g0 := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		run     func() error
		wantErr bool
	}{
		{"whole library", func() error {
			_, err := RunMatchedSource(src(blobs), MatchedOpts{Base: cfgs[0], Exp: cfgs[1]})
			return err
		}, false},
		{"early stop", func() error {
			res, err := RunMatchedSource(src(blobs), MatchedOpts{Base: cfgs[0], Exp: cfgs[1], MaxPoints: 3})
			if err == nil && res.Processed != 3 {
				err = fmt.Errorf("stopped at %d points, want 3", res.Processed)
			}
			return err
		}, false},
		{"simulation error", func() error {
			_, err := RunMatchedSource(src(blobs), MatchedOpts{Base: cfgs[0], Exp: unstored})
			return err
		}, true},
		{"decode error", func() error {
			_, err := RunMatchedSource(src(broken), MatchedOpts{Base: cfgs[0], Exp: cfgs[1]})
			return err
		}, true},
		{"SimBlobsK", func() error {
			var s BlobSim
			_, _, err := s.SimBlobsK(blobs, cfgs...)
			return err
		}, false},
		{"SimBlobsK error", func() error {
			var s BlobSim
			_, _, err := s.SimBlobsK(blobs, cfgs[0], cfgs[2], unstored)
			return err
		}, true},
	} {
		if err := tc.run(); (err != nil) != tc.wantErr {
			t.Fatalf("%s: error %v, want an error: %v", tc.name, err, tc.wantErr)
		}
		settleGoroutines(t, g0)
	}
}

// TestKernelAllocsPerPoint: simulating a point under two configurations
// side by side allocates no more than two one-configuration kernels do;
// the helpers' hand-over costs nothing a point.
func TestKernelAllocsPerPoint(t *testing.T) {
	cfgs := kernelConfigs()
	_, _, points := buildTestLibrary(t, "syn.gzip", 0.005, cfgs[0], 40, false)
	lp := points[0]
	perPoint := func(k *pointKernel) float64 {
		if _, _, err := k.simulate(lp); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := k.simulate(lp); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := perPoint(newPointKernel(cfgs[0])) + perPoint(newPointKernel(cfgs[1]))

	atLeastProcs(t, 2)
	k := newPointKernel(cfgs[0], cfgs[1])
	k.start()
	defer k.stop()
	if len(k.helpers) != 1 {
		t.Fatalf("a two-configuration kernel on %d processors started %d helpers, want 1", runtime.GOMAXPROCS(0), len(k.helpers))
	}
	if two := perPoint(k); two > one {
		t.Fatalf("the two-configuration kernel allocates %.1f objects a point, two one-configuration kernels %.1f", two, one)
	}
}
