package livepoint

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// fakeSharded serves in-memory blobs and records shard opens, so tests
// can pin down which parallel path RunSource picked. It is also these
// tests' library: the container lives in internal/lpstore, which imports
// this package, so runner semantics are tested over a slice of blobs.
type fakeSharded struct {
	meta   Meta
	blobs  [][]byte
	pos    int
	shards int
	opens  atomic.Int32
}

func (f *fakeSharded) Meta() Meta { return f.meta }

func (f *fakeSharded) NextBlob() ([]byte, error) {
	if f.pos >= len(f.blobs) {
		return nil, io.EOF
	}
	b := f.blobs[f.pos]
	f.pos++
	return b, nil
}

func (f *fakeSharded) Close() error   { return nil }
func (f *fakeSharded) NumShards() int { return f.shards }

func (f *fakeSharded) OpenShard(s int) (Source, error) {
	f.opens.Add(1)
	per := (len(f.blobs) + f.shards - 1) / f.shards
	lo := s * per
	hi := lo + per
	if hi > len(f.blobs) {
		hi = len(f.blobs)
	}
	return &fakeSharded{meta: f.meta, blobs: f.blobs[lo:hi], shards: 1}, nil
}

// encodeAll encodes points as a library would hold them.
func encodeAll(points []*LivePoint) [][]byte {
	blobs := make([][]byte, len(points))
	for i, lp := range points {
		blobs[i], _ = Encode(lp)
	}
	return blobs
}

// openFiles makes RunFile and RunMatchedFile open path as a fresh
// single-shard source over libs[path], for the rest of the test.
func openFiles(t *testing.T, libs map[string]*fakeSharded) {
	t.Helper()
	setOpener(t, func(path string) (Source, error) {
		lib, ok := libs[path]
		if !ok {
			return nil, errors.New("no such library: " + path)
		}
		return &fakeSharded{meta: lib.meta, blobs: lib.blobs, shards: 1}, nil
	})
}

// setOpener installs open as the library-file opener until the test ends.
func setOpener(t *testing.T, open func(path string) (Source, error)) {
	t.Helper()
	prev := opener
	SetOpener(open)
	t.Cleanup(func() { opener = prev })
}

// TestRunSourceShardDispatch checks the statistical-safety routing rule:
// parallel whole-library passes drain shards concurrently, but any
// truncated run (stopping rule or point cap) must stay on the read-order
// feeder — a shard-major prefix of physically consecutive points is not
// an unbiased sample.
func TestRunSourceShardDispatch(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	blobs := make([][]byte, len(points))
	for i, lp := range points {
		blobs[i], _ = Encode(lp)
	}
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	newSrc := func() *fakeSharded {
		return &fakeSharded{meta: meta, blobs: blobs, shards: 4}
	}

	// Whole library: the sharded path runs and covers every point.
	src := newSrc()
	res, err := RunSource(src, RunOpts{Cfg: cfg, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != len(blobs) {
		t.Fatalf("whole-library parallel processed %d of %d", res.Processed, len(blobs))
	}
	if src.opens.Load() == 0 {
		t.Fatal("whole-library parallel run should pull from shards")
	}

	// Point cap: must use the read-order feeder, never shards.
	src = newSrc()
	res, err = RunSource(src, RunOpts{Cfg: cfg, Parallel: 4, MaxPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 5 {
		t.Fatalf("capped parallel processed %d, want 5", res.Processed)
	}
	if n := src.opens.Load(); n != 0 {
		t.Fatalf("capped parallel run opened %d shards; capped runs must stay in read order", n)
	}

	// Stopping rule: likewise read-order only.
	src = newSrc()
	if _, err = RunSource(src, RunOpts{Cfg: cfg, Parallel: 4, RelErr: 0.5}); err != nil {
		t.Fatal(err)
	}
	if n := src.opens.Load(); n != 0 {
		t.Fatalf("early-stopping parallel run opened %d shards; stopping runs must stay in read order", n)
	}
}

// failShards is a ShardedSource whose every OpenShard fails — the
// degenerate case of a library whose backing storage vanished mid-run.
type failShards struct {
	meta   Meta
	shards int
}

func (f *failShards) Meta() Meta                    { return f.meta }
func (f *failShards) NextBlob() ([]byte, error)     { return nil, io.EOF }
func (f *failShards) Close() error                  { return nil }
func (f *failShards) NumShards() int                { return f.shards }
func (f *failShards) OpenShard(int) (Source, error) { return nil, errors.New("shard storage gone") }

// TestRunShardedOpenShardFailureNoLeak is the goroutine-leak regression:
// a worker whose OpenShard fails used to return without draining the
// shard channel, stranding the feeder on its next send forever when
// shards outnumber workers. The run must instead fail and release every
// goroutine it started.
func TestRunShardedOpenShardFailureNoLeak(t *testing.T) {
	g0 := runtime.NumGoroutine()
	src := &failShards{meta: Meta{Benchmark: "syn.gzip", Count: 80}, shards: 16}
	if _, err := RunSource(src, RunOpts{Cfg: uarch.Config8Way(), Parallel: 4}); err == nil {
		t.Fatal("run over failing shards reported success")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, %d before the run", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	src := &fakeSharded{meta: meta, blobs: blobs, shards: 1}
	if _, err := RunSource(src, RunOpts{Cfg: cfg, Parallel: 4}); err == nil {
		t.Fatal("corrupt blob did not fail the run")
	}
	if src.pos >= len(blobs)/2 {
		t.Fatalf("feeder pulled %d of %d blobs after the first failure; fail-fast did not fire", src.pos, len(blobs))
	}
}

// TestParallelTimingSplit pins the time-accounting contract: every
// execution path — sharded whole-library, read-order parallel feeder,
// and the matched-pair loop — reports the serial path's split (stream
// reads + decode as LoadTime, detailed simulation as SimTime), not a
// zero LoadTime with decode folded into a wall-clock SimTime.
func TestParallelTimingSplit(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	blobs := make([][]byte, len(points))
	for i, lp := range points {
		blobs[i], _ = Encode(lp)
	}
	meta := Meta{Benchmark: "syn.gzip", Count: len(blobs), UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	newSrc := func(shards int) *fakeSharded {
		return &fakeSharded{meta: meta, blobs: blobs, shards: shards}
	}

	res, err := RunSource(newSrc(4), RunOpts{Cfg: cfg, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadTime <= 0 || res.SimTime <= 0 {
		t.Fatalf("sharded parallel run lost its load/sim split: load=%v sim=%v", res.LoadTime, res.SimTime)
	}

	res, err = RunSource(newSrc(1), RunOpts{Cfg: cfg, Parallel: 4, MaxPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadTime <= 0 || res.SimTime <= 0 {
		t.Fatalf("feeder parallel run lost its load/sim split: load=%v sim=%v", res.LoadTime, res.SimTime)
	}

	mres, err := RunMatchedSource(newSrc(1), MatchedOpts{Base: cfg, Exp: cfg, MaxPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mres.LoadTime <= 0 || mres.SimTime <= 0 {
		t.Fatalf("matched run lost its load/sim split: load=%v sim=%v", mres.LoadTime, mres.SimTime)
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
	openFiles(t, map[string]*fakeSharded{path: {meta: meta, blobs: blobs}})
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
	openFiles(t, map[string]*fakeSharded{path: {meta: meta, blobs: encodeAll(points)}})
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
	src := &fakeSharded{meta: Meta{Benchmark: "syn.gzip", Shuffled: true}}
	openFiles(t, map[string]*fakeSharded{path: src})
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
	raw := func() Source { return &fakeSharded{meta: Meta{Benchmark: "syn.gzip"}} }
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
