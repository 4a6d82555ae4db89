package livepoint

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// RunOpts configures a sampling experiment over a live-point library.
type RunOpts struct {
	Cfg uarch.Config

	// Z and RelErr define the stopping rule (sampling.Rule): the run
	// terminates as soon as the estimate reaches ±RelErr at confidence z
	// (never before sampling.MinSampleSize points). Without a positive
	// RelErr it processes the whole library.
	Z      float64
	RelErr float64

	// MaxPoints, when positive, bounds the number of points processed.
	MaxPoints int

	// Parallel is the number of simulation workers; values < 2 run
	// serially (deterministic processing order).
	Parallel int

	// RecordHistory retains per-point snapshots for convergence plots.
	RecordHistory bool
}

// RunResult is the outcome of a live-point sampling experiment.
type RunResult struct {
	Est     sampling.Estimate
	History []sampling.Snapshot
	Tally
}

// Tally is what absolute and matched runs count besides their estimates.
type Tally struct {
	Processed int

	LoadTime time.Duration // decompression + decode + reconstruction I/O
	// SimTime is detailed simulation summed over the configurations: each
	// arena times its own Simulate, so configurations that ran side by
	// side add up, as parallel workers do (never wall-clock).
	SimTime time.Duration

	// Aggregated wrong-path approximation counters (§5), from the first
	// configuration's windows.
	UnknownFetches uint64
	UnknownLoads   uint64
	CaptureErrors  uint64 // correct-path unknown events: must be zero
}

// RunFile runs a sampling experiment over a library file. Points are
// processed in read order; on a shuffled library this realizes the paper's
// random-order online estimation (§6.1), so the run may stop at any point
// with a statistically valid estimate.
func RunFile(path string, opts RunOpts) (*RunResult, error) {
	return runFile(path, func(src Source) (*RunResult, error) { return RunSource(src, opts) })
}

// runFile opens the library at path, runs over it and closes it. A run
// that succeeded still fails when Close does: a source may finish verifying
// what it served only there, and an estimate folded from a library that
// failed verification must not be reported as good.
func runFile[R any](path string, run func(Source) (*R, error)) (*R, error) {
	src, err := OpenSource(path)
	if err != nil {
		return nil, err
	}
	res, err := run(src)
	if cerr := src.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// RunSource runs a sampling experiment over any live-point source: a local
// file, a sharded store, or a remote serving client.
func RunSource(src Source, opts RunOpts) (*RunResult, error) {
	p := &pass{cfgs: []uarch.Config{opts.Cfg}, rule: sampling.Rule{Z: opts.Z, RelErr: opts.RelErr},
		maxPoints: opts.MaxPoints, parallel: opts.Parallel, history: opts.RecordHistory}
	return p.run(src)
}

// pass is one run: each point of a library simulated under k
// configurations (one absolute; baseline and experimental matched) and
// folded into sampling.Columns until the rule stops it, maxPoints is
// reached, or the library ends. Only a one-configuration pass simulates
// points in parallel; a pass of more folds its points in order and
// simulates each point's configurations side by side (pointKernel).
type pass struct {
	cfgs      []uarch.Config
	rule      sampling.Rule
	maxPoints int
	parallel  int
	history   bool

	cols     *sampling.Columns
	row      []float64   // add's CPIs, reused
	out      [][]float64 // when non-nil, every point's CPIs by column (SimBlobsK)
	noImpact bool        // the no-impact screen stopped the pass
	res      RunResult
}

// run normalises the pass, once for every entry point (each configuration
// must be buildable, Z 0 means Z997, an active rule needs a shuffled
// library), and runs it. Whole-library parallel runs pull whole shards
// when the source has them; truncated ones stay on the read-order feeder,
// since a shard-major prefix of an index-reshuffled store groups
// correlated points and would bias the estimate.
func (p *pass) run(src Source) (*RunResult, error) {
	for _, cfg := range p.cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("livepoint: %w", err)
		}
	}
	if p.rule.Z == 0 {
		p.rule.Z = sampling.Z997
	}
	if err := p.rule.Check(src.Meta().Shuffled); err != nil {
		return nil, fmt.Errorf("livepoint: %w", err)
	}
	p.cols = sampling.NewColumns(len(p.cfgs), p.rule, p.history)
	p.row = make([]float64, len(p.cfgs))
	var err error
	switch ss, sharded := src.(ShardedSource); {
	case p.parallel < 2 || len(p.cfgs) > 1:
		err = p.serial(newPointKernel(p.cfgs...), new(LivePoint), src.NextBlob)
	case sharded && ss.NumShards() > 1 && !p.rule.Active() && p.maxPoints <= 0:
		err = p.pipeline(func(pl *pipeline) error { return pl.loadShards(ss, p.parallel) })
	default:
		err = p.pipeline(func(pl *pipeline) error { return pl.loadStream(src, p.parallel, p.maxPoints) })
	}
	if err != nil {
		return nil, err
	}
	p.res.Est, p.res.History = *p.cols.Estimate(), p.cols.History()
	return &p.res, nil
}

// add is the pass's one fold, of one point's window results (one per
// configuration); it reports whether the pass is over.
func (p *pass) add(wrs []warm.WindowResult) (over bool) {
	r := &p.res
	r.Processed++
	r.UnknownFetches += wrs[0].Stats.UnknownFetches
	r.UnknownLoads += wrs[0].Stats.UnknownLoads
	r.CaptureErrors += wrs[0].Stats.CorrectPathUnknownLoads + wrs[0].Stats.CorrectPathUnknownFetches
	for j := range wrs {
		p.row[j] = wrs[j].UnitCPI
		if p.out != nil {
			p.out[j] = append(p.out[j], wrs[j].UnitCPI)
		}
	}
	var stop bool
	stop, p.noImpact = p.cols.Add(p.row...)
	return stop || p.maxPoints > 0 && r.Processed >= p.maxPoints
}

// pointKernel is the one place a live-point is simulated: its window runs
// under each of k configurations (one for absolute runs; baseline and
// experimental for matched pairs), each on its own arena so that none
// reconfigures between geometries every point. It serves one goroutine,
// its caller; between start and stop it also keeps helper goroutines, so
// that a point's k configurations simulate side by side.
type pointKernel struct {
	cfgs   []uarch.Config
	arenas []SimArena
	wrs    []warm.WindowResult // simulate's result slice, reused
	errs   []error             // arena i's error for the current point
	took   []time.Duration     // arena i's Simulate time for the current point

	// Between start and stop, of n goroutines in all, helper h runs
	// arenas h+1, h+1+n, h+1+2n, … of every point handed to helpers[h],
	// and answers on joined; the caller runs arenas 0, n, 2n, ….
	helpers []chan *LivePoint
	joined  chan struct{}
	exited  sync.WaitGroup
}

func newPointKernel(cfgs ...uarch.Config) *pointKernel {
	k := new(pointKernel)
	k.configure(cfgs)
	return k
}

// configure points the kernel at cfgs, keeping the arenas it has: arena i
// serves configuration i, whatever it served before (a reused arena is
// bit-identical to a fresh one). It is not called between start and stop.
func (k *pointKernel) configure(cfgs []uarch.Config) {
	k.cfgs = cfgs
	if n := len(cfgs) - len(k.arenas); n > 0 {
		k.arenas = append(k.arenas, make([]SimArena, n)...)
		k.wrs = append(k.wrs, make([]warm.WindowResult, n)...)
		k.errs = append(k.errs, make([]error, n)...)
		k.took = append(k.took, make([]time.Duration, n)...)
	}
	k.wrs, k.errs, k.took = k.wrs[:len(cfgs)], k.errs[:len(cfgs)], k.took[:len(cfgs)]
}

// start gives the kernel min(k, GOMAXPROCS) goroutines, the caller's own
// among them, until stop. With one configuration or one processor it
// starts none, and simulate runs every arena on the caller.
func (k *pointKernel) start() {
	n := min(len(k.cfgs), runtime.GOMAXPROCS(0))
	if n < 2 {
		return
	}
	k.helpers = make([]chan *LivePoint, n-1)
	k.joined = make(chan struct{}, n-1)
	for h := range k.helpers {
		work := make(chan *LivePoint)
		k.helpers[h] = work
		k.exited.Add(1)
		go func() {
			defer k.exited.Done()
			for lp := range work {
				k.run(lp, h+1, n)
				k.joined <- struct{}{}
			}
		}()
	}
}

// stop ends the helpers start began and waits for them to exit.
func (k *pointKernel) stop() {
	for _, work := range k.helpers {
		close(work)
	}
	k.exited.Wait()
	k.helpers = nil
}

// run simulates lp on arenas first, first+step, …, each timing its own
// Simulate.
func (k *pointKernel) run(lp *LivePoint, first, step int) {
	for i := first; i < len(k.cfgs); i += step {
		t0 := time.Now()
		k.wrs[i], k.errs[i] = k.arenas[i].Simulate(lp, k.cfgs[i])
		k.took[i] = time.Since(t0)
	}
}

// simulate returns lp's window results, index-aligned with the kernel's
// configurations and valid until the next call, and their simulation
// time summed over the arenas. It returns only once every arena is done
// with lp, so the caller may decode the next point into it. Of several
// failing configurations, the lowest-indexed one's error is returned.
func (k *pointKernel) simulate(lp *LivePoint) ([]warm.WindowResult, time.Duration, error) {
	// A table decoded out of order sorts itself at its first lookup:
	// sort it here, before arenas read lp side by side.
	lp.Mem.ensureSorted()
	for _, work := range k.helpers {
		work <- lp
	}
	k.run(lp, 0, len(k.helpers)+1)
	for range k.helpers {
		<-k.joined
	}
	var took time.Duration
	for i, err := range k.errs {
		if err != nil {
			return nil, 0, fmt.Errorf("livepoint: point %d, config %q: %w", lp.Index, k.cfgs[i].Name, err)
		}
		took += k.took[i]
	}
	return k.wrs, took, nil
}

// decodeBlob is DecodeInto plus the decoded-bytes counter.
func decodeBlob(lp *LivePoint, blob []byte) error {
	mDecodedBytes.Add(uint64(len(blob)))
	return DecodeInto(lp, blob)
}

// serial is the one serial loop: it pulls blobs from next until io.EOF,
// decodes each in order into lp, in place, and simulates it on k, folding
// on one goroutine, so the processing order and the exact stopping point
// are deterministic. The kernel's helpers live exactly as long as the
// loop. Blob reads and decode count as load time, detailed simulation
// (summed over the configurations) as sim time.
func (p *pass) serial(k *pointKernel, lp *LivePoint, next func() ([]byte, error)) error {
	k.start()
	defer k.stop()
	for {
		t0 := time.Now()
		blob, err := next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = decodeBlob(lp, blob)
		}
		if err != nil {
			return err
		}
		p.res.LoadTime += time.Since(t0)

		wrs, took, err := k.simulate(lp)
		if err != nil {
			return err
		}
		p.res.SimTime += took

		if p.add(wrs) {
			return nil
		}
	}
}

// simOut carries one simulation result, or a failure from any stage, to
// the fold loop.
type simOut struct {
	wr  warm.WindowResult
	err error
}

// pipeline is the scaffold of a parallel run — the paper's parallel
// live-point processing (§6):
//
//	load stage → lpc → simulation workers → outs → fold loop
//
// The load stage runs ahead of simulation through the bounded lpc, so
// I/O, decompression and decode overlap detailed simulation. Results fold
// in completion order, which is still an unbiased sample of a shuffled
// library; unlike serial runs the exact stopping point depends on
// scheduling. Parallel runs differ only in their load stage (loadStream,
// loadShards), which sees the scaffold through this type.
type pipeline struct {
	lpc  chan *LivePoint
	outs chan simOut
	done chan struct{} // closed when the fold loop wants no more points

	// The load/sim split, summed over each stage's goroutines: the serial
	// loop's accounting, never wall-clock.
	loadNS, simNS atomic.Int64
}

func (p *pipeline) fail(err error) { p.outs <- simOut{err: err} }

func (p *pipeline) loaded(since time.Time) { p.loadNS.Add(int64(time.Since(since))) }

// decode queues one blob's live-point for simulation, in pooled storage.
// The blob is not retained.
func (p *pipeline) decode(blob []byte) {
	t0 := time.Now()
	lp := acquireLivePoint()
	err := decodeBlob(lp, blob)
	p.loaded(t0)
	if err != nil {
		releaseLivePoint(lp)
		p.fail(err)
		return
	}
	p.lpc <- lp
	mDecodeAheadDepth.Set(float64(len(p.lpc)))
}

// pipeline runs the load stage against p.parallel simulation workers,
// each with its own kernel, and folds until both have drained: once the
// stopping rule or an error closes done, the points already loaded are
// still simulated and folded, so no goroutine stays blocked.
func (p *pass) pipeline(load func(*pipeline) error) error {
	pl := &pipeline{
		// Decode-ahead deep enough to ride out per-point sim-time variance,
		// shallow enough to cap fail-fast overshoot and resident points.
		lpc:  make(chan *LivePoint, 2*p.parallel),
		outs: make(chan simOut, p.parallel),
		done: make(chan struct{}),
	}

	go func() {
		if err := load(pl); err != nil {
			pl.fail(err)
		}
		close(pl.lpc)
	}()
	var workers sync.WaitGroup
	for w := 0; w < p.parallel; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			k := newPointKernel(p.cfgs...)
			for lp := range pl.lpc {
				wrs, took, err := k.simulate(lp)
				pl.simNS.Add(int64(took))
				releaseLivePoint(lp)
				if err != nil {
					pl.fail(err)
				} else {
					pl.outs <- simOut{wr: wrs[0]}
				}
			}
		}()
	}
	go func() {
		workers.Wait()
		close(pl.outs)
	}()

	// done closes when the pass is over or on the first error (fail-fast:
	// the load stage must not read and decode the rest of the library just
	// to report an error that has already happened).
	var stop sync.Once
	var firstErr error
	for out := range pl.outs {
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		if out.err != nil || p.add([]warm.WindowResult{out.wr}) {
			stop.Do(func() { close(pl.done) })
		}
	}
	p.res.LoadTime = time.Duration(pl.loadNS.Load())
	p.res.SimTime = time.Duration(pl.simNS.Load())
	return firstErr
}

// fan is the shape both load stages share: feed offers items to n
// goroutines running work, until it has no more or offer reports that the
// fold loop wants none. fan returns once all of them have finished.
func fan[T any](p *pipeline, n, buffer int, work func(T), feed func(offer func(T) bool) error) error {
	items := make(chan T, buffer)
	var workers sync.WaitGroup
	for w := 0; w < n; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for item := range items {
				work(item)
			}
		}()
	}
	defer workers.Wait()
	defer close(items)
	return feed(func(item T) bool {
		select {
		case items <- item:
			return true
		case <-p.done:
			return false
		}
	})
}

// loadStream is the read-order load stage, the one every truncated run
// uses: blobs come off the single stream, each copied into a pooled
// buffer (NextBlob's return is only valid until the next call) for the
// decoders. One stream feeds them, so half the simulation width keeps the
// pipeline full while decode stays the cheap stage.
func (p *pipeline) loadStream(src Source, parallel, maxPoints int) error {
	decode := func(pb *[]byte) {
		p.decode(*pb)
		releaseBlobBuf(pb)
	}
	return fan(p, (parallel+1)/2, parallel, decode, func(offer func(*[]byte) bool) error {
		for sent := 0; maxPoints <= 0 || sent < maxPoints; sent++ {
			t0 := time.Now()
			blob, err := src.NextBlob()
			if err != nil {
				p.loaded(t0)
				if err == io.EOF {
					return nil
				}
				return err
			}
			pb := acquireBlobBuf(len(blob))
			copy(*pb, blob)
			p.loaded(t0)
			if !offer(pb) {
				releaseBlobBuf(pb)
				return nil
			}
		}
		return nil
	})
}

// loadShards is the whole-library load stage over a sharded source:
// loaders claim whole shards and decompress them concurrently, so load
// bandwidth scales with the simulation width. Every shard is loaded —
// RunSource keeps truncated runs on loadStream, because a shard-major
// prefix of physically consecutive points is not an unbiased sample.
func (p *pipeline) loadShards(ss ShardedSource, parallel int) error {
	load := func(s int) { p.loadShard(ss, s) }
	return fan(p, parallel, 0, load, func(offer func(int) bool) error {
		for s := 0; s < ss.NumShards() && offer(s); s++ {
		}
		return nil
	})
}

// loadShard decodes one shard's points in its read order. A point that
// fails to decode is reported and skipped; a read error ends the shard.
// No blob copy is needed: each blob is decoded before the next NextBlob on
// the same shard stream.
func (p *pipeline) loadShard(ss ShardedSource, s int) {
	t0 := time.Now()
	sub, err := ss.OpenShard(s)
	p.loaded(t0)
	if err != nil {
		p.fail(err)
		return
	}
	defer sub.Close()
	for {
		t0 := time.Now()
		blob, err := sub.NextBlob()
		p.loaded(t0)
		if err != nil {
			if err != io.EOF {
				p.fail(err)
			}
			return
		}
		p.decode(blob)
	}
}

// SimBlobs simulates each encoded live-point under cfg and returns the
// per-point CPIs in input order, plus a RunResult aggregating timings and
// wrong-path counters: BlobSim.SimBlobsK once, on a throwaway BlobSim.
func SimBlobs(blobs [][]byte, cfg uarch.Config) ([]float64, *RunResult, error) {
	var s BlobSim
	cpis, res, err := s.SimBlobsK(blobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return cpis[0], res, nil
}

// BlobSim is the worker-side kernel of a cluster lease: a remote worker
// fetches a lease's blobs, runs SimBlobsK, and posts the CPIs back to the
// coordinator for folding. It keeps its arenas and its decoded LivePoint
// from call to call, so a worker simulates every lease of its life on the
// same storage (DESIGN §3.8 rule 3). The zero value is ready to use; a
// BlobSim serves one goroutine.
type BlobSim struct {
	k  pointKernel
	lp LivePoint
}

// SimBlobsK simulates each blob under k configurations: cpis[j] holds
// configuration j's CPIs in input order, and the RunResult the first
// configuration's estimate and counters, so cluster workers post the same
// telemetry whatever k.
func (s *BlobSim) SimBlobsK(blobs [][]byte, cfgs ...uarch.Config) (cpis [][]float64, res *RunResult, err error) {
	k := len(cfgs)
	p := &pass{cfgs: cfgs, cols: sampling.NewColumns(k, sampling.Rule{Z: sampling.Z997}, false), row: make([]float64, k), out: make([][]float64, k)}
	next := func() ([]byte, error) {
		if p.res.Processed == len(blobs) {
			return nil, io.EOF
		}
		return blobs[p.res.Processed], nil
	}
	s.k.configure(cfgs)
	if err := p.serial(&s.k, &s.lp, next); err != nil {
		return nil, nil, err
	}
	p.res.Est = *p.cols.Estimate()
	return p.out, &p.res, nil
}

// MatchedOpts configures a matched-pair comparative experiment (§6.2).
type MatchedOpts struct {
	Base uarch.Config
	Exp  uarch.Config

	Z      float64
	RelErr float64 // target half-width on the delta, relative to baseline

	// NoImpactThreshold, when positive, additionally stops once the delta
	// is confidently within ±threshold of zero (the rapid design-space
	// screen).
	NoImpactThreshold float64

	MaxPoints int
}

// MatchedResult is the outcome of a matched-pair experiment. Its Tally
// counts both configurations' simulation time and the baseline's
// wrong-path counters.
type MatchedResult struct {
	MP sampling.MatchedPair
	Tally
	// StoppedNoImpact records that the no-impact screen fired.
	StoppedNoImpact bool
}

// RunMatchedFile measures the same live-points under two configurations and
// builds a confidence interval directly on the per-unit CPI delta. Both
// configurations must be reconstructible from the library's stored bounds.
func RunMatchedFile(path string, opts MatchedOpts) (*MatchedResult, error) {
	return runFile(path, func(src Source) (*MatchedResult, error) { return RunMatchedSource(src, opts) })
}

// RunMatchedSource is RunMatchedFile over any live-point source: a serial
// pass of the baseline and experimental configurations, which simulate
// each point side by side when there are two processors.
func RunMatchedSource(src Source, opts MatchedOpts) (*MatchedResult, error) {
	p := &pass{cfgs: []uarch.Config{opts.Base, opts.Exp},
		rule: sampling.Rule{Z: opts.Z, RelErr: opts.RelErr, NoImpact: opts.NoImpactThreshold}, maxPoints: opts.MaxPoints}
	res, err := p.run(src)
	if err != nil {
		return nil, err
	}
	return &MatchedResult{MP: *p.cols.Pair(1), Tally: res.Tally, StoppedNoImpact: p.noImpact}, nil
}
