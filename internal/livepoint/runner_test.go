package livepoint

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// fakeSource serves in-memory blobs in order. It is these tests'
// library: the container lives in internal/lpstore, which imports this
// package, so runner semantics are tested over a slice of blobs.
type fakeSource struct {
	meta  Meta
	blobs [][]byte
	pos   int
}

func (f *fakeSource) Meta() Meta { return f.meta }

func (f *fakeSource) NextBlob() ([]byte, error) {
	if f.pos >= len(f.blobs) {
		return nil, io.EOF
	}
	b := f.blobs[f.pos]
	f.pos++
	return b, nil
}

func (f *fakeSource) Close() error { return nil }

// encodeAll encodes points as a library would hold them.
func encodeAll(points []*LivePoint) [][]byte {
	blobs := make([][]byte, len(points))
	for i, lp := range points {
		blobs[i], _ = Encode(lp)
	}
	return blobs
}

// openFiles makes RunFile and RunMatchedFile open path as a fresh
// source over libs[path], for the rest of the test.
func openFiles(t *testing.T, libs map[string]*fakeSource) {
	t.Helper()
	setOpener(t, func(path string) (Source, error) {
		lib, ok := libs[path]
		if !ok {
			return nil, errors.New("no such library: " + path)
		}
		return &fakeSource{meta: lib.meta, blobs: lib.blobs}, nil
	})
}

// setOpener installs open as the library-file opener until the test ends.
func setOpener(t *testing.T, open func(path string) (Source, error)) {
	t.Helper()
	prev := opener
	SetOpener(open)
	t.Cleanup(func() { opener = prev })
}

// TestRunParallelFailFast: the first error must stop the feeder. A fold
// loop that only records it lets the feeder pull (and workers simulate)
// the entire remaining library before reporting a failure that had
// already happened on blob one.
func TestRunParallelFailFast(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	good, _ := Encode(points[0])
	blobs := make([][]byte, 300)
	blobs[0] = []byte("not a live point")
	for i := 1; i < len(blobs); i++ {
		blobs[i] = good
	}
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	src := &fakeSource{meta: meta, blobs: blobs}
	if _, err := RunSource(src, RunOpts{Cfg: cfg, Parallel: 4}); err == nil {
		t.Fatal("corrupt blob did not fail the run")
	}
	if src.pos >= len(blobs)/2 {
		t.Fatalf("feeder pulled %d of %d blobs after the first failure; fail-fast did not fire", src.pos, len(blobs))
	}
}

// failsAfter serves its blobs until n have been read, then fails every
// read, and counts the reads it was asked for.
type failsAfter struct {
	fakeSource
	n     int
	reads atomic.Int32
}

func (f *failsAfter) NextBlob() ([]byte, error) {
	if f.reads.Add(1) > int32(f.n) {
		return nil, errors.New("shard storage gone")
	}
	return f.fakeSource.NextBlob()
}

// TestRunParallelSourceFailureNoLeak: at Parallel 4, a source that fails
// mid-run fails the run with its error, is asked for no point after the
// one that failed, and every goroutine the run started is gone once it
// returns.
func TestRunParallelSourceFailureNoLeak(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	meta := Meta{Benchmark: "syn.gzip", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	g0 := runtime.NumGoroutine()
	src := &failsAfter{fakeSource: fakeSource{meta: meta, blobs: encodeAll(points)}, n: len(points) / 2}
	if _, err := RunSource(src, RunOpts{Cfg: cfg, Parallel: 4}); err == nil || !strings.Contains(err.Error(), "shard storage gone") {
		t.Fatalf("run over a source that fails mid-run: %v", err)
	}
	if got := src.reads.Load(); got != int32(src.n)+1 {
		t.Fatalf("the source was read %d times; it failed at read %d, and no worker may read past a failure", got, src.n+1)
	}
	settleGoroutines(t, g0)
}

// TestParallelStopFoldsNothingAfter: a parallel pass stops where a serial
// one would count it over. Capped, it takes and folds exactly MaxPoints
// points; stopped by its rule, it folds no point past the one that
// stopped it, though other workers were still simulating theirs.
func TestParallelStopFoldsNothingAfter(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	blobs := encodeAll(points)
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	for _, limit := range []int{1, 5, 7} {
		src := &fakeSource{meta: meta, blobs: blobs}
		res, err := RunSource(src, RunOpts{Cfg: cfg, Parallel: 4, MaxPoints: limit})
		if err != nil {
			t.Fatal(err)
		}
		if res.Processed != limit || res.Est.N() != limit || src.pos != limit {
			t.Fatalf("MaxPoints %d at Parallel 4: processed %d, estimate over %d, %d read", limit, res.Processed, res.Est.N(), src.pos)
		}
	}
	// A ±50% target is met at the rule's floor, whatever the points.
	var long [][]byte
	for len(long) < 3*sampling.MinSampleSize {
		long = append(long, blobs...)
	}
	meta.Count = len(long)
	res, err := RunSource(&fakeSource{meta: meta, blobs: long}, RunOpts{Cfg: cfg, Parallel: 4, RelErr: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != sampling.MinSampleSize || res.Est.N() != res.Processed {
		t.Fatalf("a ±50%% target at Parallel 4: processed %d, estimate over %d, want both %d", res.Processed, res.Est.N(), sampling.MinSampleSize)
	}
}

// TestParallelStopIsTheSerialStop: under a target that fires partway
// through the library, a run at Parallel 2 or 4 stops on the serial run's
// point with the serial run's estimate, history and counters, bit for
// bit: a point that finishes before a lower one waits in the fold, so
// points fold in read order whatever the workers' timing.
func TestParallelStopIsTheSerialStop(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	blobs := encodeAll(points)
	var long [][]byte
	for len(long) < 4*sampling.MinSampleSize {
		long = append(long, blobs...)
	}
	meta := Meta{Benchmark: "syn.gzip", Count: len(long), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	run := func(opts RunOpts) *RunResult {
		t.Helper()
		opts.Cfg, opts.RecordHistory = cfg, true
		res, err := RunSource(&fakeSource{meta: meta, blobs: long}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The target is the precision the whole-library run had reached
	// two-thirds of the way in: it fires there or sooner, but past the
	// CLT floor.
	whole := run(RunOpts{})
	relErr := whole.History[2*len(long)/3].RelCI
	serial := run(RunOpts{RelErr: relErr})
	if serial.Processed >= len(long) || serial.Processed <= sampling.MinSampleSize {
		t.Fatalf("a ±%.2f%% target stopped the serial run at point %d of %d; want a stop inside the library",
			100*relErr, serial.Processed, len(long))
	}
	t.Logf("a ±%.2f%% target stops the serial run at point %d of %d", 100*relErr, serial.Processed, len(long))
	for _, parallel := range []int{2, 4} {
		par := run(RunOpts{RelErr: relErr, Parallel: parallel})
		if par.Processed != serial.Processed || !reflect.DeepEqual(par.Est, serial.Est) ||
			!reflect.DeepEqual(par.History, serial.History) || par.UnknownFetches != serial.UnknownFetches ||
			par.UnknownLoads != serial.UnknownLoads || par.CaptureErrors != serial.CaptureErrors {
			t.Fatalf("Parallel %d stopped at %d (%v, %d/%d/%d); serial at %d (%v, %d/%d/%d)", parallel,
				par.Processed, par.Est.String(), par.UnknownFetches, par.UnknownLoads, par.CaptureErrors,
				serial.Processed, serial.Est.String(), serial.UnknownFetches, serial.UnknownLoads, serial.CaptureErrors)
		}
	}
}

// TestParallelPassesAtOnce: passes that run at once take distinct
// BlobSims, and so distinct folds, from the free list, and each returns
// what it returns alone — a matched pass too, whose pair is read after the
// pass has given its BlobSims back.
func TestParallelPassesAtOnce(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	meta := Meta{Benchmark: "syn.gzip", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	blobs := encodeAll(points)
	src := func() Source { return &fakeSource{meta: meta, blobs: blobs} }
	exp := cfg
	exp.Hier.MemLat *= 2
	want, err := RunSource(src(), RunOpts{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	wantMatched, err := RunMatchedSource(src(), MatchedOpts{Base: cfg, Exp: exp})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got, err := RunSource(src(), RunOpts{Cfg: cfg, Parallel: 2}); err != nil || !reflect.DeepEqual(got.Est, want.Est) {
				t.Errorf("a parallel pass beside others: %v, %v; alone %v", got, err, want.Est.String())
			}
		}()
		go func() {
			defer wg.Done()
			if got, err := RunMatchedSource(src(), MatchedOpts{Base: cfg, Exp: exp}); err != nil || got.MP != wantMatched.MP {
				t.Errorf("a matched pass beside others: %v, %v; alone %+v", got, err, wantMatched.MP)
			}
		}()
	}
	wg.Wait()
}

// TestFreeListKeepsTheLastPassShape: the BlobSims a pass gives back
// replace the list's, so a serial run after a four-worker one leaves one
// worker's arenas for the life of the process, not four.
func TestFreeListKeepsTheLastPassShape(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	meta := Meta{Benchmark: "syn.gzip", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	blobs := encodeAll(points)
	for _, parallel := range []int{4, 1} {
		if _, err := RunSource(&fakeSource{meta: meta, blobs: blobs}, RunOpts{Cfg: cfg, Parallel: parallel}); err != nil {
			t.Fatal(err)
		}
	}
	blobSims.Lock()
	defer blobSims.Unlock()
	if n := len(blobSims.free); n != 1 {
		t.Fatalf("after a four-worker run and a serial one the free list holds %d BlobSims, want 1", n)
	}
}

// TestParallelTimingSplit pins the time-accounting contract: a parallel
// run, whole or capped, and the matched-pair loop report the serial
// path's split (blob reads + decode as LoadTime, detailed simulation as
// SimTime), not a zero LoadTime with decode folded into a wall-clock
// SimTime.
func TestParallelTimingSplit(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	meta := Meta{Benchmark: "syn.gzip", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	blobs := encodeAll(points)
	newSrc := func() *fakeSource { return &fakeSource{meta: meta, blobs: blobs} }

	for _, limit := range []int{0, 5} {
		res, err := RunSource(newSrc(), RunOpts{Cfg: cfg, Parallel: 4, MaxPoints: limit})
		if err != nil {
			t.Fatal(err)
		}
		if res.LoadTime <= 0 || res.SimTime <= 0 {
			t.Fatalf("parallel run, MaxPoints %d, lost its load/sim split: load=%v sim=%v", limit, res.LoadTime, res.SimTime)
		}
	}

	mres, err := RunMatchedSource(newSrc(), MatchedOpts{Base: cfg, Exp: cfg, MaxPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mres.LoadTime <= 0 || mres.SimTime <= 0 {
		t.Fatalf("matched run lost its load/sim split: load=%v sim=%v", mres.LoadTime, mres.SimTime)
	}
}

// TestRunReusesRunState: a second RunFile over a library allocates little
// more than its fold: its worker simulates on arenas, and decodes into a
// LivePoint, that the first run grew and gave back.
func TestRunReusesRunState(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	const path = "lib.lplib"
	meta := Meta{Benchmark: "syn.gzip", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	openFiles(t, map[string]*fakeSource{path: {meta: meta, blobs: encodeAll(points)}})
	run := func() {
		if _, err := RunFile(path, RunOpts{Cfg: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	perPoint := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(points))
	t.Logf("a second run: %d bytes a point over %d points", perPoint, len(points))
	if perPoint > 1<<10 { // a fresh kernel and LivePoint a run cost 63 KB a point here
		t.Errorf("a second run allocated %d bytes a point, want under 1 KB", perPoint)
	}
}

// TestMatchedDefaultsZ: options are normalised in one place, so a matched
// run with Z unset uses Z997 exactly as an absolute run does. With Z left
// at zero the ±z·σ interval has zero width and any RelErr target is "met"
// at the MinSampleSize floor — a tight interval around an unearned answer.
func TestMatchedDefaultsZ(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.02, cfg, 9, false)
	if len(points) < 40 {
		t.Fatalf("library has %d points, need at least 40", len(points))
	}
	blobs := encodeAll(points[:40])
	const path = "lib.lplib"
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	openFiles(t, map[string]*fakeSource{path: {meta: meta, blobs: blobs}})
	exp := cfg
	exp.Hier.MemLat *= 2

	unset, err := RunMatchedFile(path, MatchedOpts{Base: cfg, Exp: exp, RelErr: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if unset.Processed != len(blobs) {
		t.Fatalf("matched run with Z unset stopped at pair %d of %d on a ±0.01%% target", unset.Processed, len(blobs))
	}
	explicit, err := RunMatchedFile(path, MatchedOpts{Base: cfg, Exp: exp, Z: sampling.Z997, RelErr: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if unset.MP != explicit.MP || unset.Processed != explicit.Processed {
		t.Fatalf("Z unset: %d pairs, %+v; Z997: %d pairs, %+v", unset.Processed, unset.MP, explicit.Processed, explicit.MP)
	}
}

// TestMatchedCountsTheBaseline: a matched run reports the wrong-path and
// capture counters of its baseline configuration, the same counts an
// absolute run of that configuration reports over the same library.
func TestMatchedCountsTheBaseline(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gcc", 0.01, cfg, 20, false)
	const path = "lib.lplib"
	meta := Meta{Benchmark: "syn.gcc", Count: len(points), UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	openFiles(t, map[string]*fakeSource{path: {meta: meta, blobs: encodeAll(points)}})
	exp := cfg
	exp.Hier.MemLat *= 2

	abs, err := RunFile(path, RunOpts{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := RunMatchedFile(path, MatchedOpts{Base: cfg, Exp: exp})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Processed != abs.Processed || mres.UnknownFetches != abs.UnknownFetches ||
		mres.UnknownLoads != abs.UnknownLoads || mres.CaptureErrors != abs.CaptureErrors {
		t.Fatalf("matched counts %d points, %d/%d/%d; absolute %d points, %d/%d/%d (fetches/loads/capture errors)",
			mres.Processed, mres.UnknownFetches, mres.UnknownLoads, mres.CaptureErrors,
			abs.Processed, abs.UnknownFetches, abs.UnknownLoads, abs.CaptureErrors)
	}
	if mres.CaptureErrors != 0 {
		t.Fatalf("%d correct-path unknown events on a full live-state library", mres.CaptureErrors)
	}
	t.Logf("%d points: %d wrong-path unknown fetches, %d loads", mres.Processed, mres.UnknownFetches, mres.UnknownLoads)
}

// TestRunRefusesUnbuildableMachine: a configuration the detailed core could
// only crash on (a window it cannot allocate) or deadlock on (a pool of no
// functional units) fails the run with the field named, before a point is
// read.
func TestRunRefusesUnbuildableMachine(t *testing.T) {
	const path = "lib.lplib"
	src := &fakeSource{meta: Meta{Benchmark: "syn.gzip", Shuffled: true}}
	openFiles(t, map[string]*fakeSource{path: src})
	huge, noALU := uarch.Config8Way(), uarch.Config8Way()
	huge.RUUSize = 1 << 40
	noALU.IntALU = 0

	if _, err := RunFile(path, RunOpts{Cfg: huge}); err == nil || !strings.Contains(err.Error(), "RUUSize") {
		t.Errorf("absolute run with RUUSize 1<<40: %v", err)
	}
	if _, err := RunFile(path, RunOpts{Cfg: noALU, Parallel: 2}); err == nil || !strings.Contains(err.Error(), "IntALU") {
		t.Errorf("parallel run with no integer ALU: %v", err)
	}
	if _, err := RunMatchedFile(path, MatchedOpts{Base: uarch.Config8Way(), Exp: huge}); err == nil || !strings.Contains(err.Error(), "RUUSize") {
		t.Errorf("matched run with experimental RUUSize 1<<40: %v", err)
	}
}

// TestStoppingRuleNeedsShuffledLibrary: every way a run can stop early — a
// precision target, absolute or matched, or the matched no-impact screen on
// its own — is refused on an unshuffled library with the one message of
// sampling.Rule.Check, before a point is read. The screen on its own used to
// slip through (normalise looked at RelErr only): lpsim -matched -err 0
// stopped at pair 30 of an unshuffled library without complaint.
func TestStoppingRuleNeedsShuffledLibrary(t *testing.T) {
	cfg := uarch.Config8Way()
	raw := func() Source { return &fakeSource{meta: Meta{Benchmark: "syn.gzip"}} }
	_, want := RunSource(raw(), RunOpts{Cfg: cfg, RelErr: 0.03})
	if want == nil || !strings.Contains(want.Error(), "shuffled") {
		t.Fatalf("absolute run with a target on an unshuffled library: %v", want)
	}
	for name, opts := range map[string]MatchedOpts{
		"target": {Base: cfg, Exp: cfg, RelErr: 0.03},
		"screen": {Base: cfg, Exp: cfg, NoImpactThreshold: 0.03},
	} {
		if _, err := RunMatchedSource(raw(), opts); err == nil || err.Error() != want.Error() {
			t.Errorf("matched run with a %s on an unshuffled library: %v, want %v", name, err, want)
		}
	}
	// No rule, no refusal: a whole-library run does not care about order.
	if _, err := RunMatchedSource(raw(), MatchedOpts{Base: cfg, Exp: cfg}); err != nil {
		t.Errorf("whole-library matched run on an unshuffled library: %v", err)
	}
}

// TestOpenSourceWithoutOpener: a binary that never links internal/lpstore
// has no container format; opening a library must say so, not panic.
func TestOpenSourceWithoutOpener(t *testing.T) {
	setOpener(t, nil)
	if _, err := RunFile("lib.lplib", RunOpts{}); err == nil || !strings.Contains(err.Error(), "lpstore") {
		t.Fatalf("RunFile with no opener installed: %v", err)
	}
}
