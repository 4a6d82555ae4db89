// Package livepoints is a from-scratch Go reproduction of "Simulation
// Sampling with Live-points" (Wenisch, Wunderlich, Falsafi, Hoe — ISPASS
// 2006): a complete simulation-sampling toolchain in which checkpointed
// warming (live-points) replaces the functional warming that dominates
// SMARTS-style sampled microarchitecture simulation.
//
// The package is a facade over the internal subsystems: a synthetic
// benchmark suite, a functional simulator, a detailed out-of-order core, the
// SMARTS and adaptive-warming (MRRL) engines, and the live-point
// creation/storage/simulation pipeline. A typical absolute-performance study
// is:
//
//	p := livepoints.GenerateBenchmark("syn.gcc", 1.0)
//	design, _ := livepoints.NewDesignFor(p, livepoints.Config8Way(), 500)
//	info, _ := livepoints.CreateLibrary(p, design, livepoints.Config8Way(), "gcc.lplib")
//	res, _ := livepoints.Run("gcc.lplib", livepoints.RunOpts{
//	        Cfg: livepoints.Config8Way(), Z: livepoints.Z997, RelErr: 0.03,
//	})
//	fmt.Printf("CPI = %.3f ±%.1f%%\n", res.Est.Mean(), 100*res.Est.RelCI(livepoints.Z997))
//
// Libraries are written and run in the sharded v2 format (internal/lpstore)
// and can be served to remote workers over HTTP (internal/lpserve, cmd
// lpserved); RunSource and Connect run remote libraries. Only v2 is read:
// a library in an older container is rebuilt with lpgen, byte for byte
// what the same recipe always writes.
//
// See DESIGN.md for the package layout and the storage/serving
// architecture.
package livepoints

import (
	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/mrrl"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// Re-exported core types. These aliases are the public API surface; the
// internal packages hold the implementations.
type (
	// Config is a complete microarchitectural configuration (Table 1).
	Config = uarch.Config
	// Program is a generated synthetic benchmark.
	Program = prog.Program
	// BenchSpec describes one benchmark of the suite.
	BenchSpec = prog.BenchSpec
	// Design is a systematic sample design: the pre-selected measurement
	// windows a live-point library covers.
	Design = sampling.Design
	// Estimate is a streaming mean/variance/confidence accumulator.
	Estimate = sampling.Estimate
	// MatchedPair accumulates paired baseline/experimental measurements.
	MatchedPair = sampling.MatchedPair
	// LivePoint is one decoded live-point.
	LivePoint = livepoint.LivePoint
	// CreateOpts configures live-point creation.
	CreateOpts = livepoint.CreateOpts
	// RunOpts configures a sampling experiment over a library.
	RunOpts = livepoint.RunOpts
	// RunResult is the outcome of a sampling experiment.
	RunResult = livepoint.RunResult
	// MatchedOpts configures a matched-pair comparative experiment.
	MatchedOpts = livepoint.MatchedOpts
	// MatchedResult is the outcome of a matched-pair experiment.
	MatchedResult = livepoint.MatchedResult
	// PredictorConfig describes a branch-predictor configuration.
	PredictorConfig = bpred.Config
	// WindowResult is the outcome of one simulated detailed window.
	WindowResult = warm.WindowResult
	// Source supplies encoded live-points to runners: a local library
	// file, an open store, or a remote serving client.
	Source = livepoint.Source
	// RemoteLibrary is a client connection to an lpserved instance.
	RemoteLibrary = lpserve.Client
)

// Z997 is the paper's confidence level: three-sigma (99.7 %).
const Z997 = sampling.Z997

// MinSampleSize is the central-limit-theorem floor on sample sizes (§6.1).
const MinSampleSize = sampling.MinSampleSize

// MeasureLen is the measurement-unit length in instructions.
const MeasureLen = uarch.MeasureLen

// Config8Way returns the paper's baseline 8-way configuration (Table 1).
func Config8Way() Config { return uarch.Config8Way() }

// Config16Way returns the paper's aggressive 16-way configuration (Table 1).
func Config16Way() Config { return uarch.Config16Way() }

// Benchmarks returns the synthetic SPEC2K-surrogate suite specifications.
func Benchmarks() []BenchSpec { return prog.Suite() }

// GenerateBenchmark builds the named benchmark at the given length scale
// (1.0 = nominal). It panics on unknown names; use Benchmarks to enumerate.
func GenerateBenchmark(name string, scale float64) *Program {
	spec, err := prog.ByName(name)
	if err != nil {
		panic(err)
	}
	return prog.Generate(spec, scale)
}

// BenchmarkLength runs the benchmark functionally to completion and returns
// its exact dynamic instruction count.
func BenchmarkLength(p *Program) (uint64, error) {
	return warm.BenchLength(p, p.TargetLen*4+4_000_000)
}

// NewDesignFor builds a systematic sample design for a benchmark under the
// given configuration, with at most maxPoints measurement units and windows
// spaced so functional warming dominates the gaps.
func NewDesignFor(p *Program, cfg Config, maxPoints int) (Design, error) {
	benchLen, err := BenchmarkLength(p)
	if err != nil {
		return Design{}, err
	}
	population := int(benchLen / MeasureLen)
	stride := 10 * cfg.WindowLen() / MeasureLen
	if maxPoints > 0 && population/stride > maxPoints {
		stride = population / maxPoints
	}
	return sampling.NewSystematic(benchLen, MeasureLen, uint64(cfg.DetailedWarm), stride, 1)
}

// LibraryInfo summarizes a created library.
type LibraryInfo struct {
	Path              string
	Points            int
	Shards            int
	CompressedBytes   int64
	UncompressedBytes int64
}

// shuffleSeed is the deterministic creation-time shuffle seed (§6.1).
const shuffleSeed = 0x11E9_0147

// CreateLibrary runs the one-time creation pass for a benchmark and writes
// a shuffled live-point library to path. The library stores cache/TLB state
// at cfg's maxima and cfg's branch predictor; pass extra predictor
// configurations via CreateLibraryOpts for multi-predictor libraries.
func CreateLibrary(p *Program, design Design, cfg Config, path string) (LibraryInfo, error) {
	return CreateLibraryOpts(p, design, CreateOpts{
		MaxHier: cfg.Hier,
		Preds:   []PredictorConfig{cfg.BP},
	}, path)
}

// CreateLibraryOpts is CreateLibrary with full control over captured
// state. Libraries are written in the sharded v2 format: points are
// shuffled once at creation (so reads in storage order are already in
// random order) and the footer index supports O(1) random access,
// index-only reshuffling (lpstore.Shuffle), and a reader that inflates its
// next shard while the points of the current one are simulated.
func CreateLibraryOpts(p *Program, design Design, opts CreateOpts, path string) (LibraryInfo, error) {
	info, err := lpstore.Create(path, p, design, opts, shuffleSeed, lpstore.WriteOpts{})
	if err != nil {
		return LibraryInfo{}, err
	}
	return LibraryInfo{
		Path:              path,
		Points:            info.Points,
		Shards:            info.Shards,
		CompressedBytes:   info.CompressedBytes,
		UncompressedBytes: info.UncompressedBytes,
	}, nil
}

// Run executes a sampling experiment over a library file (see RunOpts for
// stopping rules, parallelism and online history).
func Run(path string, opts RunOpts) (*RunResult, error) {
	return livepoint.RunFile(path, opts)
}

// RunSource executes a sampling experiment over any live-point source —
// use Connect for remote libraries served by lpserved.
func RunSource(src Source, opts RunOpts) (*RunResult, error) {
	return livepoint.RunSource(src, opts)
}

// Connect dials an lpserved instance. The returned client's Source feeds
// RunSource and RunMatchedSource exactly like a local library.
func Connect(baseURL string) (*RemoteLibrary, error) {
	return lpserve.Dial(baseURL)
}

// RunMatched executes a matched-pair comparative experiment over a library
// file (§6.2).
func RunMatched(path string, opts MatchedOpts) (*MatchedResult, error) {
	return livepoint.RunMatchedFile(path, opts)
}

// RunMatchedSource is RunMatched over any live-point source.
func RunMatchedSource(src Source, opts MatchedOpts) (*MatchedResult, error) {
	return livepoint.RunMatchedSource(src, opts)
}

// Simulate runs a single live-point's detailed window under cfg.
func Simulate(lp *LivePoint, cfg Config) (WindowResult, error) {
	return livepoint.Simulate(lp, cfg)
}

// SMARTS runs full-warming simulation sampling (the paper's baseline
// technique) over a benchmark.
func SMARTS(cfg Config, p *Program, design Design) (*warm.SMARTSResult, error) {
	return warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
}

// CompleteSimulation runs the entire benchmark through the detailed core
// (the bias gold standard) and returns its CPI.
func CompleteSimulation(cfg Config, p *Program) (float64, error) {
	benchLen, err := BenchmarkLength(p)
	if err != nil {
		return 0, err
	}
	cpi, _, err := warm.RunFullDetailed(cfg, p, benchLen*2+1000)
	return cpi, err
}

// MRRLAnalyze runs the Memory Reference Reuse Latency offline pass (§4.2),
// returning the per-window functional-warming lengths at the standard
// 99.9 % reuse threshold.
func MRRLAnalyze(p *Program, design Design) ([]uint64, error) {
	an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
	if err != nil {
		return nil, err
	}
	return an.WarmLens, nil
}

// RequiredSampleSize returns the number of measurement units needed for a
// relative error target at confidence z, given the population coefficient
// of variation (§2).
func RequiredSampleSize(cv, z, relErr float64) int {
	return sampling.RequiredN(cv, z, relErr)
}

// Version identifies the reproduction.
const Version = "livepoints-repro 1.0 (ISPASS 2006)"
