package livepoint

import (
	"fmt"
	"io"
	"runtime"
	"sync"
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

	// LoadTime is the time workers spent getting and decoding their
	// blobs, summed over the workers. An inflate a source runs ahead
	// counts only while a worker waits for it.
	LoadTime time.Duration
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

	// The loop's shared state, which its workers take turns at under mu.
	mu    sync.Mutex
	next  func() ([]byte, error) // the source's NextBlob
	taken int                    // points decoded
	over  bool                   // the pass folds no more points
	ended bool                   // the source is at its end, or failed
	err   error                  // the first failure
}

// run normalises the pass, once for every entry point (each configuration
// must be buildable, Z 0 means Z997, an active rule needs a shuffled
// library), and runs the loop on Parallel workers for one configuration,
// on one for more.
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
	p.next = src.NextBlob
	n := 1
	if len(p.cfgs) == 1 {
		n = max(n, p.parallel)
	}
	sims := takeBlobSims(n)
	defer releaseBlobSims(sims)
	var workers sync.WaitGroup
	for _, s := range sims[1:] {
		workers.Add(1)
		go func() {
			defer workers.Done()
			p.work(s)
		}()
	}
	p.work(sims[0])
	workers.Wait()
	if p.err != nil {
		return nil, p.err
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

// work is the one run loop, on one worker and its BlobSim; a pass runs it
// on each of its workers at once. Under the pass's lock a worker folds the
// point it simulated last, stops if the pass is over, has failed or has
// read the library to its end, and otherwise pulls and decodes the next
// blob into its own LivePoint; it simulates outside the lock. On one
// worker that is the serial loop: points are read, simulated and folded
// in order, so the exact stopping point is deterministic. On more, points
// fold in completion order, still an unbiased sample of a shuffled
// library, and the stopping point depends on scheduling. The kernel's
// helpers live exactly as long as the loop.
func (p *pass) work(s *BlobSim) {
	s.k.configure(p.cfgs)
	s.k.start()
	defer s.k.stop()
	var wrs []warm.WindowResult
	var took time.Duration
	var err error
	for p.turn(&s.lp, wrs, took, err) {
		wrs, took, err = s.k.simulate(&s.lp)
	}
}

// turn is a worker's time under the lock: it folds wrs, the window results
// of the worker's last point (none before its first), or fails the pass
// with simErr, the point's simulation error, and decodes the next point
// into lp, reporting whether there is one to simulate. A point simulated
// after the pass is over is not folded. The source is read under the lock
// because a Source serves one caller at a time and lends each blob only
// until its next NextBlob. Getting and decoding a blob count as load time,
// detailed simulation (summed over the configurations, and over the
// workers) as sim time.
func (p *pass) turn(lp *LivePoint, wrs []warm.WindowResult, took time.Duration, simErr error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if simErr != nil {
		p.end(simErr)
		return false
	}
	if wrs != nil {
		p.res.SimTime += took
		p.over = p.over || p.add(wrs)
	}
	if p.over || p.ended || p.maxPoints > 0 && p.taken == p.maxPoints {
		return false
	}
	t0 := time.Now()
	blob, err := p.next()
	if err == nil {
		mDecodedBytes.Add(uint64(len(blob)))
		err = DecodeInto(lp, blob)
	}
	if err != nil {
		p.end(err)
		return false
	}
	p.taken++
	p.res.LoadTime += time.Since(t0)
	return true
}

// end stops the workers taking points, at the source's end or on the
// pass's first error; p.mu is held.
func (p *pass) end(err error) {
	p.ended = true
	if p.err == nil && err != io.EOF {
		p.err = err
	}
}

// blobSims is the package's free list of worker state. A pass takes a
// BlobSim for each of its workers and gives them back when it ends, so the
// next pass (RunFile opens its library again each time) simulates on
// arenas and decodes into points already grown to the library's largest,
// instead of growing fresh ones. The last given back is the first taken,
// so a run repeated over one library gets back the BlobSims that grew for
// it. Unlike a sync.Pool it survives collections; it keeps at most
// maxFreeBlobSims.
var blobSims struct {
	sync.Mutex
	free []*BlobSim
}

// maxFreeBlobSims covers a four-worker pass.
const maxFreeBlobSims = 4

// takeBlobSims returns n BlobSims, the most recently given back first.
func takeBlobSims(n int) []*BlobSim {
	blobSims.Lock()
	defer blobSims.Unlock()
	sims := make([]*BlobSim, n)
	for i := range sims {
		k := len(blobSims.free) - 1
		if k < 0 {
			sims[i] = new(BlobSim)
			continue
		}
		sims[i], blobSims.free = blobSims.free[k], blobSims.free[:k]
	}
	return sims
}

// releaseBlobSims gives back as many of sims as the list has room for,
// sims[0] last, so that the next pass's first worker takes it first.
func releaseBlobSims(sims []*BlobSim) {
	blobSims.Lock()
	defer blobSims.Unlock()
	for i := min(len(sims), maxFreeBlobSims-len(blobSims.free)) - 1; i >= 0; i-- {
		blobSims.free = append(blobSims.free, sims[i])
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

// BlobSim is one worker's state: a kernel and the LivePoint it decodes
// into. Each worker of a pass runs the run loop on one, and a cluster
// worker runs SimBlobsK on one for every lease: it fetches a lease's
// blobs, simulates them, and posts the CPIs back to the coordinator for
// folding. A BlobSim keeps its arenas and its decoded LivePoint from call
// to call, so a worker simulates every lease of its life on the same
// storage (DESIGN §3.8 rule 3). The zero value is ready to use; a BlobSim
// serves one goroutine.
type BlobSim struct {
	k  pointKernel
	lp LivePoint
}

// SimBlobsK simulates each blob under k configurations, in the run loop
// on s alone: cpis[j] holds configuration j's CPIs in input order, and the RunResult the first
// configuration's estimate and counters, so cluster workers post the same
// telemetry whatever k.
func (s *BlobSim) SimBlobsK(blobs [][]byte, cfgs ...uarch.Config) (cpis [][]float64, res *RunResult, err error) {
	k := len(cfgs)
	p := &pass{cfgs: cfgs, cols: sampling.NewColumns(k, sampling.Rule{Z: sampling.Z997}, false), row: make([]float64, k), out: make([][]float64, k)}
	p.next = func() ([]byte, error) {
		if p.taken == len(blobs) {
			return nil, io.EOF
		}
		return blobs[p.taken], nil
	}
	if p.work(s); p.err != nil {
		return nil, nil, p.err
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
