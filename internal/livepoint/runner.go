package livepoint

import (
	"fmt"
	"io"
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

func (o RunOpts) rule() sampling.Rule { return sampling.Rule{Z: o.Z, RelErr: o.RelErr} }

// RunResult is the outcome of a live-point sampling experiment.
type RunResult struct {
	Est       sampling.Estimate
	History   []sampling.Snapshot
	Processed int

	LoadTime time.Duration // decompression + decode + reconstruction I/O
	SimTime  time.Duration // detailed simulation

	// Aggregated wrong-path approximation counters (§5).
	UnknownFetches uint64
	UnknownLoads   uint64
	CaptureErrors  uint64 // correct-path unknown events: must be zero
}

// Satisfied reports whether the stopping rule was met (as opposed to
// exhausting the library).
func (r *RunResult) Satisfied(z, relErr float64) bool {
	return sampling.Rule{Z: z, RelErr: relErr}.Stop(&r.Est)
}

// fold adds one window to the result and reports whether the run's
// stopping rule, which online carries, is now met.
func (r *RunResult) fold(wr warm.WindowResult, online *sampling.OnlineEstimator) bool {
	r.Processed++
	r.UnknownFetches += wr.Stats.UnknownFetches
	r.UnknownLoads += wr.Stats.UnknownLoads
	r.CaptureErrors += wr.Stats.CorrectPathUnknownLoads + wr.Stats.CorrectPathUnknownFetches
	return online.Add(wr.UnitCPI)
}

// finish copies the folded estimate into the result.
func (r *RunResult) finish(online *sampling.OnlineEstimator) {
	r.Est = *online.Estimate()
	r.History = online.History()
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

// normalise applies the rules absolute and matched runs share: every
// configuration must describe a machine the core can build, an unset
// confidence level means Z997, and a stopping rule needs a shuffled library.
func normalise(rule *sampling.Rule, src Source, cfgs ...uarch.Config) error {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("livepoint: %w", err)
		}
	}
	if rule.Z == 0 {
		rule.Z = sampling.Z997
	}
	if err := rule.Check(src.Meta().Shuffled); err != nil {
		return fmt.Errorf("livepoint: %w", err)
	}
	return nil
}

// RunSource runs a sampling experiment over any live-point source: a local
// file, a sharded store, or a remote serving client. Whole-library
// parallel runs pull from independent shards when the source exposes
// them; truncated runs (a stopping rule or point cap) stay on the
// read-order feeder, because draining whole shards processes physically
// consecutive points together — on an index-reshuffled store those are
// correlated, and stopping early on such a prefix would bias the
// estimate.
func RunSource(src Source, opts RunOpts) (*RunResult, error) {
	rule := opts.rule()
	if err := normalise(&rule, src, opts.Cfg); err != nil {
		return nil, err
	}
	opts.Z = rule.Z
	if opts.Parallel < 2 {
		return runSerial(src, opts)
	}
	wholeLibrary := !rule.Active() && opts.MaxPoints <= 0
	if ss, ok := src.(ShardedSource); ok && ss.NumShards() > 1 && wholeLibrary {
		return runPipeline(opts, func(p *pipeline) error { return p.loadShards(ss, opts.Parallel) })
	}
	return runPipeline(opts, func(p *pipeline) error { return p.loadStream(src, opts.Parallel, opts.MaxPoints) })
}

// pointKernel is the one place a live-point is simulated: its window runs
// under each of k configurations (one for absolute runs; baseline and
// experimental for matched pairs), each on its own arena so that none
// reconfigures between geometries every point. It serves one goroutine.
type pointKernel struct {
	cfgs   []uarch.Config
	arenas []SimArena
	wrs    []warm.WindowResult // simulate's result slice, reused
	lp     LivePoint           // the serial loop's decode target, reused
}

func newPointKernel(cfgs ...uarch.Config) *pointKernel {
	return &pointKernel{cfgs: cfgs, arenas: make([]SimArena, len(cfgs)), wrs: make([]warm.WindowResult, len(cfgs))}
}

// simulate returns lp's window results, index-aligned with the kernel's
// configurations and valid until the next call.
func (k *pointKernel) simulate(lp *LivePoint) ([]warm.WindowResult, error) {
	for i := range k.cfgs {
		wr, err := k.arenas[i].Simulate(lp, k.cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("livepoint: point %d, config %q: %w", lp.Index, k.cfgs[i].Name, err)
		}
		k.wrs[i] = wr
	}
	return k.wrs, nil
}

// decodeBlob is DecodeInto plus the decoded-bytes counter.
func decodeBlob(lp *LivePoint, blob []byte) error {
	mDecodedBytes.Add(uint64(len(blob)))
	return DecodeInto(lp, blob)
}

// serial is the one serial loop: it pulls blobs from next until io.EOF,
// decodes and simulates each in order, and hands the results to visit,
// which folds them and reports whether to stop. Blob reads and decode are
// added to *load, detailed simulation (under every configuration) to *sim.
func (k *pointKernel) serial(next func() ([]byte, error), load, sim *time.Duration, visit func([]warm.WindowResult) (stop bool)) error {
	for {
		t0 := time.Now()
		blob, err := next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = decodeBlob(&k.lp, blob)
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		*load += t1.Sub(t0)

		wrs, err := k.simulate(&k.lp)
		if err != nil {
			return err
		}
		*sim += time.Since(t1)

		if visit(wrs) {
			return nil
		}
	}
}

// runSerial processes the source in read order on one goroutine, so the
// processing order and the exact stopping point are deterministic.
func runSerial(src Source, opts RunOpts) (*RunResult, error) {
	res := &RunResult{}
	online := sampling.NewOnline(opts.Z, opts.RelErr, opts.RecordHistory)
	err := newPointKernel(opts.Cfg).serial(src.NextBlob, &res.LoadTime, &res.SimTime, func(wrs []warm.WindowResult) bool {
		return res.fold(wrs[0], online) || opts.MaxPoints > 0 && res.Processed >= opts.MaxPoints
	})
	if err != nil {
		return nil, err
	}
	res.finish(online)
	return res, nil
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

// runPipeline runs the load stage against opts.Parallel simulation
// workers, each with its own kernel, and folds until both have drained:
// once the stopping rule or an error closes done, the points already
// loaded are still simulated and folded, so no goroutine stays blocked.
func runPipeline(opts RunOpts, load func(*pipeline) error) (*RunResult, error) {
	res := &RunResult{}
	online := sampling.NewOnline(opts.Z, opts.RelErr, opts.RecordHistory)
	p := &pipeline{
		// Decode-ahead deep enough to ride out per-point sim-time variance,
		// shallow enough to cap fail-fast overshoot and resident points.
		lpc:  make(chan *LivePoint, 2*opts.Parallel),
		outs: make(chan simOut, opts.Parallel),
		done: make(chan struct{}),
	}

	go func() {
		if err := load(p); err != nil {
			p.fail(err)
		}
		close(p.lpc)
	}()
	var workers sync.WaitGroup
	for w := 0; w < opts.Parallel; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			k := newPointKernel(opts.Cfg)
			for lp := range p.lpc {
				t0 := time.Now()
				wrs, err := k.simulate(lp)
				p.simNS.Add(int64(time.Since(t0)))
				releaseLivePoint(lp)
				if err != nil {
					p.fail(err)
				} else {
					p.outs <- simOut{wr: wrs[0]}
				}
			}
		}()
	}
	go func() {
		workers.Wait()
		close(p.outs)
	}()

	// done closes when the stopping rule first fires or on the first error
	// (fail-fast: the load stage must not read and decode the rest of the
	// library just to report an error that has already happened).
	var stop sync.Once
	var firstErr error
	for out := range p.outs {
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		if out.err != nil || res.fold(out.wr, online) {
			stop.Do(func() { close(p.done) })
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.LoadTime = time.Duration(p.loadNS.Load())
	res.SimTime = time.Duration(p.simNS.Load())
	res.finish(online)
	return res, nil
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

// simBlobs is the serial loop over an in-memory batch: each
// configuration's CPIs in input order, plus a RunResult aggregating the
// timings and the first configuration's estimate and wrong-path counters.
func simBlobs(blobs [][]byte, cfgs ...uarch.Config) ([][]float64, *RunResult, error) {
	res := &RunResult{}
	online := sampling.NewOnline(sampling.Z997, 0, false)
	cpis := make([][]float64, len(cfgs))
	for c := range cpis {
		cpis[c] = make([]float64, 0, len(blobs))
	}
	next := func() ([]byte, error) {
		if res.Processed == len(blobs) {
			return nil, io.EOF
		}
		return blobs[res.Processed], nil
	}
	err := newPointKernel(cfgs...).serial(next, &res.LoadTime, &res.SimTime, func(wrs []warm.WindowResult) bool {
		res.fold(wrs[0], online)
		for c, wr := range wrs {
			cpis[c] = append(cpis[c], wr.UnitCPI)
		}
		return false
	})
	if err != nil {
		return nil, nil, err
	}
	res.finish(online)
	return cpis, res, nil
}

// SimBlobs simulates each encoded live-point under cfg and returns the
// per-point CPIs in input order, plus a RunResult aggregating timings and
// wrong-path counters. This is the worker-side kernel of a cluster lease:
// a remote worker fetches a lease's blobs, runs SimBlobs, and posts the
// CPIs back to the coordinator for folding.
func SimBlobs(blobs [][]byte, cfg uarch.Config) ([]float64, *RunResult, error) {
	cpis, res, err := simBlobs(blobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return cpis[0], res, nil
}

// SimBlobsMatched is SimBlobs for matched-pair runs: every point is
// simulated under both configurations and the paired CPIs are returned in
// input order. The RunResult carries the same telemetry as the absolute
// path's (with the baseline configuration's wrong-path counters), so
// cluster workers post identical timing fields in either mode.
func SimBlobsMatched(blobs [][]byte, base, exp uarch.Config) (baseCPIs, expCPIs []float64, res *RunResult, err error) {
	cpis, res, err := simBlobs(blobs, base, exp)
	if err != nil {
		return nil, nil, nil, err
	}
	return cpis[0], cpis[1], res, nil
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

func (o MatchedOpts) rule() sampling.Rule {
	return sampling.Rule{Z: o.Z, RelErr: o.RelErr, NoImpact: o.NoImpactThreshold}
}

// MatchedResult is the outcome of a matched-pair experiment.
type MatchedResult struct {
	MP        sampling.MatchedPair
	Processed int
	LoadTime  time.Duration // stream reads + decode, as in RunResult
	SimTime   time.Duration // detailed simulation (both configurations)
	// StoppedNoImpact records that the no-impact screen fired.
	StoppedNoImpact bool
}

// RunMatchedFile measures the same live-points under two configurations and
// builds a confidence interval directly on the per-unit CPI delta. Both
// configurations must be reconstructible from the library's stored bounds.
func RunMatchedFile(path string, opts MatchedOpts) (*MatchedResult, error) {
	return runFile(path, func(src Source) (*MatchedResult, error) { return RunMatchedSource(src, opts) })
}

// RunMatchedSource is RunMatchedFile over any live-point source: the
// serial loop over a two-configuration kernel.
func RunMatchedSource(src Source, opts MatchedOpts) (*MatchedResult, error) {
	rule := opts.rule()
	if err := normalise(&rule, src, opts.Base, opts.Exp); err != nil {
		return nil, err
	}
	res := &MatchedResult{}
	err := newPointKernel(opts.Base, opts.Exp).serial(src.NextBlob, &res.LoadTime, &res.SimTime, func(wrs []warm.WindowResult) bool {
		res.MP.Add(wrs[0].UnitCPI, wrs[1].UnitCPI)
		res.Processed++
		var stop bool
		stop, res.StoppedNoImpact = rule.StopPair(&res.MP)
		return stop || opts.MaxPoints > 0 && res.Processed >= opts.MaxPoints
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
