package livepoint

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// testDesign generates a suite benchmark at the given scale and a
// systematic sample design over it.
func testDesign(t *testing.T, name string, scale float64, cfg uarch.Config, stride int) (*prog.Program, sampling.Design) {
	t.Helper()
	spec, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Generate(spec, scale)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), stride, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, design
}

// buildTestLibrary creates a small live-point library for one benchmark and
// returns the design used plus the collected points (program order).
func buildTestLibrary(t *testing.T, name string, scale float64, cfg uarch.Config, stride int, restricted bool) (*prog.Program, sampling.Design, []*LivePoint) {
	t.Helper()
	p, design := testDesign(t, name, scale, cfg, stride)
	opts := CreateOpts{
		MaxHier:    cfg.Hier,
		Preds:      []bpred.Config{cfg.BP},
		Restricted: restricted,
	}
	var points []*LivePoint
	err := Create(p, design, opts, func(lp *LivePoint) error {
		points = append(points, lp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != design.Units() {
		t.Fatalf("created %d points, want %d", len(points), design.Units())
	}
	return p, design, points
}

// TestLivePointMatchesSMARTS is the paper's headline accuracy claim:
// checkpointed warming matches full warming. Per-unit CPIs from live-point
// simulation must track the SMARTS unit CPIs for the same sample design.
func TestLivePointMatchesSMARTS(t *testing.T) {
	for _, name := range []string{"syn.gzip", "syn.mcf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := uarch.Config8Way()
			p, design, points := buildTestLibrary(t, name, 0.02, cfg, 30, false)

			sm, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
			if err != nil {
				t.Fatal(err)
			}

			var lpEst sampling.Estimate
			var maxUnitErr float64
			for i, lp := range points {
				wr, err := Simulate(lp, cfg)
				if err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				if wr.Stats.CorrectPathUnknownLoads > 0 || wr.Stats.CorrectPathUnknownFetches > 0 {
					t.Fatalf("point %d: correct-path state missing (loads=%d fetches=%d)",
						i, wr.Stats.CorrectPathUnknownLoads, wr.Stats.CorrectPathUnknownFetches)
				}
				lpEst.Add(wr.UnitCPI)
				ue := math.Abs(wr.UnitCPI-sm.UnitCPIs[i]) / sm.UnitCPIs[i]
				if ue > maxUnitErr {
					maxUnitErr = ue
				}
			}
			bias := math.Abs(lpEst.Mean()-sm.Est.Mean()) / sm.Est.Mean()
			t.Logf("%s: SMARTS %.4f vs live-points %.4f over %d units: bias %.2f%%, worst unit %.2f%%",
				name, sm.Est.Mean(), lpEst.Mean(), lpEst.N(), 100*bias, 100*maxUnitErr)
			if bias > 0.02 {
				t.Errorf("live-point bias vs SMARTS %.2f%% exceeds 2%%", 100*bias)
			}
		})
	}
}

// TestEncodeDecodeRoundTrip checks the DER format preserves every field.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, points := buildTestLibrary(t, "syn.gcc", 0.005, cfg, 40, false)
	lp := points[0]

	blob, bd := Encode(lp)
	if bd.Total() != len(blob) {
		t.Fatalf("size breakdown %d != encoded length %d", bd.Total(), len(blob))
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != lp.Benchmark || got.Index != lp.Index || got.Position != lp.Position ||
		got.WarmLen != lp.WarmLen || got.UnitLen != lp.UnitLen || got.FuncWarm != lp.FuncWarm ||
		got.Restricted != lp.Restricted {
		t.Fatal("header fields did not round-trip")
	}
	if got.Arch != lp.Arch {
		t.Fatal("architectural state did not round-trip")
	}
	if got.Mem.Len() != lp.Mem.Len() {
		t.Fatalf("memory words: %d vs %d", got.Mem.Len(), lp.Mem.Len())
	}
	for _, e := range lp.Mem.Entries() {
		if gv, ok := got.Mem.Get(e.Addr); !ok || gv != e.Val {
			t.Fatalf("memory word %#x: %#x vs %#x", e.Addr, gv, e.Val)
		}
	}
	if textInsts(got) != textInsts(lp) {
		t.Fatalf("text instructions: %d vs %d", textInsts(got), textInsts(lp))
	}
	if len(got.Caches) != len(lp.Caches) || len(got.TLBs) != len(lp.TLBs) || len(got.Preds) != len(lp.Preds) {
		t.Fatal("section counts did not round-trip")
	}
	for i := range lp.Caches {
		if got.Caches[i].Cfg != lp.Caches[i].Cfg || got.Caches[i].Len() != lp.Caches[i].Len() {
			t.Fatalf("cache record %d did not round-trip", i)
		}
		for j := range lp.Caches[i].Entries {
			if got.Caches[i].Entries[j] != lp.Caches[i].Entries[j] {
				t.Fatalf("cache record %d entry %d did not round-trip", i, j)
			}
		}
	}
	for i := range lp.Preds {
		if got.Preds[i].Cfg != lp.Preds[i].Cfg {
			t.Fatalf("predictor %d config did not round-trip", i)
		}
		if string(got.Preds[i].Data) != string(lp.Preds[i].Data) {
			t.Fatalf("predictor %d snapshot did not round-trip", i)
		}
	}

	// Decoded points must simulate identically to the originals.
	w1, err := Simulate(lp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Simulate(got, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w1.UnitCPI != w2.UnitCPI {
		t.Fatalf("decoded point simulates differently: %.6f vs %.6f", w1.UnitCPI, w2.UnitCPI)
	}
}

// TestDecodeRefusesUnknownRegister: a point whose stored text names a
// register the core does not have (Rs1 = 200; the file has isa.NumRegs)
// fails DecodeInto with an error, so a run reports it as a bad point
// instead of indexing past the core's register tables in Simulate.
func TestDecodeRefusesUnknownRegister(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, false)
	lp := points[0]
	good, _ := Encode(lp)
	lp.Text[0].Insts[0].Rs1 = 200
	bad, _ := Encode(lp)
	var into LivePoint
	if err := DecodeInto(&into, bad); err == nil || !strings.Contains(err.Error(), "r200") {
		t.Fatalf("DecodeInto of a point with Rs1 = 200: %v, want an error naming r200", err)
	}

	// Through the runners the error is the decoder's: no configuration
	// ever simulated the point.
	blobs := [][]byte{good, bad}
	if _, _, err := SimBlobs(blobs, cfg); err == nil || !strings.Contains(err.Error(), "r200") || strings.Contains(err.Error(), "config") {
		t.Errorf("SimBlobs: %v, want the decode error", err)
	}
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	exp := cfg
	exp.Hier.MemLat *= 2
	if _, err := RunMatchedSource(&fakeSource{meta: meta, blobs: blobs}, MatchedOpts{Base: cfg, Exp: exp}); err == nil ||
		!strings.Contains(err.Error(), "r200") || strings.Contains(err.Error(), "config") {
		t.Errorf("RunMatchedSource: %v, want the decode error", err)
	}
}

// TestRunFileOnlineStopsEarly checks random-order online estimation stops
// once confidence is reached and refuses unshuffled libraries.
func TestRunFileOnlineStopsEarly(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.swim", 0.02, cfg, 10, false)

	const raw, shuffled = "raw.lplib", "shuffled.lplib"
	blobs := encodeAll(points)
	mixed := append([][]byte(nil), blobs...)
	rand.New(rand.NewSource(7)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	meta := Meta{Benchmark: "syn.swim", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	shuffledMeta := meta
	shuffledMeta.Shuffled = true
	openFiles(t, map[string]*fakeSource{
		raw:      {meta: meta, blobs: blobs},
		shuffled: {meta: shuffledMeta, blobs: mixed},
	})

	// Early stopping on the unshuffled library must be refused.
	if _, err := RunFile(raw, RunOpts{Cfg: cfg, Z: sampling.Z997, RelErr: 0.10}); err == nil {
		t.Fatal("early stopping on unshuffled library should be rejected")
	}

	res, err := RunFile(shuffled, RunOpts{Cfg: cfg, Z: sampling.Z997, RelErr: 0.10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed < sampling.MinSampleSize {
		t.Fatalf("processed %d points, below the CLT minimum", res.Processed)
	}
	if res.Processed == len(points) && res.Est.RelCI(sampling.Z997) > 0.10 {
		t.Fatalf("library exhausted without reaching confidence: ±%.1f%%", 100*res.Est.RelCI(sampling.Z997))
	}
	if len(res.History) != res.Processed {
		t.Fatalf("history has %d snapshots, want %d", len(res.History), res.Processed)
	}
	t.Logf("stopped after %d of %d points at ±%.2f%%", res.Processed, len(points), 100*res.Est.RelCI(sampling.Z997))
}

// TestParallelMatchesSerialEstimate checks the parallel runner converges to
// the same mean over a full library pass.
func TestParallelMatchesSerialEstimate(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	const path = "lib.lplib"
	blobs := encodeAll(points)
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	openFiles(t, map[string]*fakeSource{path: {meta: meta, blobs: blobs}})
	serial, err := RunFile(path, RunOpts{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFile(path, RunOpts{Cfg: cfg, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Processed != par.Processed {
		t.Fatalf("serial processed %d, parallel %d", serial.Processed, par.Processed)
	}
	if math.Abs(serial.Est.Mean()-par.Est.Mean()) > 1e-12 {
		t.Fatalf("parallel mean %.9f differs from serial %.9f", par.Est.Mean(), serial.Est.Mean())
	}
}

// TestRestrictedLiveStateHasMoreBias reproduces the Figure 5 direction:
// restricted live-state (correct-path-only microarchitectural state) must
// show at least as much bias as full live-state on a branchy workload, and
// its live-points must be smaller.
func TestRestrictedLiveStateHasMoreBias(t *testing.T) {
	cfg := uarch.Config8Way()
	p, design, full := buildTestLibrary(t, "syn.gcc", 0.02, cfg, 30, false)
	_, _, restricted := buildTestLibrary(t, "syn.gcc", 0.02, cfg, 30, true)

	sm, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
	if err != nil {
		t.Fatal(err)
	}

	var fullErr, restErr float64
	var fullBytes, restBytes int
	for i := range full {
		wf, err := Simulate(full[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrr, err := Simulate(restricted[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		fullErr += math.Abs(wf.UnitCPI - sm.UnitCPIs[i])
		restErr += math.Abs(wrr.UnitCPI - sm.UnitCPIs[i])
		bf, _ := Encode(full[i])
		br, _ := Encode(restricted[i])
		fullBytes += len(bf)
		restBytes += len(br)
	}
	t.Logf("avg |unit error|: full %.4f vs restricted %.4f; bytes full %d vs restricted %d",
		fullErr/float64(len(full)), restErr/float64(len(full)), fullBytes, restBytes)
	if restBytes >= fullBytes {
		t.Errorf("restricted live-points should be smaller: %d vs %d", restBytes, fullBytes)
	}
	if restErr < fullErr {
		t.Logf("note: restricted error below full on this sample (both should be small)")
	}
}

// TestReconstructSmallerConfig checks a library captured at the 16-way
// maximum simulates the 8-way configuration (cache reusability, §4.3).
func TestReconstructSmallerConfig(t *testing.T) {
	cfg16 := uarch.Config16Way()
	cfg8 := uarch.Config8Way()

	spec, err := prog.ByName("syn.gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Generate(spec, 0.01)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg8.DetailedWarm), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := CreateOpts{
		MaxHier: cfg16.Hier,
		Preds:   []bpred.Config{cfg16.BP, cfg8.BP}, // store both predictors
	}
	var points []*LivePoint
	if err := Create(p, design, opts, func(lp *LivePoint) error {
		points = append(points, lp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wr, err := Simulate(points[0], cfg8)
	if err != nil {
		t.Fatalf("simulating 8-way from 16-way-max library: %v", err)
	}
	if wr.UnitCPI <= 0 {
		t.Fatal("bad CPI")
	}
}

// textInsts returns the number of instructions a live-point stores.
func textInsts(lp *LivePoint) int {
	n := 0
	for _, r := range lp.Text {
		n += len(r.Insts)
	}
	return n
}
