// Package harness orchestrates the paper's evaluation: it builds and caches
// benchmark goldens, MRRL analyses and live-point libraries, and regenerates
// every table and figure of the evaluation section (see DESIGN.md §4 for
// the experiment index).
//
// Expensive one-time artifacts (benchmark lengths, complete-simulation
// CPIs, MRRL warming lengths, live-point libraries) are cached under the
// output directory, keyed by benchmark, scale and configuration, so
// experiments can be re-run and extended cheaply — mirroring how a real
// live-point library amortizes its creation cost (§4.3).
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/mrrl"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// Context carries experiment-wide settings and the artifact cache.
type Context struct {
	// OutDir holds libraries, caches and reports.
	OutDir string
	// Scale multiplies every benchmark's dynamic length. The paper runs
	// SPEC2K at full length; scaled-down defaults keep full-suite
	// experiments tractable while preserving every shape (see DESIGN.md
	// §2). 1.0 is the suite's nominal length.
	Scale float64
	// Benches selects the suite subset (nil = whole suite).
	Benches []string
	// MaxLibPoints caps live-point library sizes.
	MaxLibPoints int
	// Z and RelErr are the confidence target (paper: 99.7 % of ±3 %).
	Z      float64
	RelErr float64
	// Offsets is the number of independent sample offsets used when
	// averaging bias measurements (paper: five).
	Offsets int
	// Parallel bounds concurrent benchmark-level work.
	Parallel int

	Log io.Writer

	mu     sync.Mutex
	cache  map[string]json.RawMessage
	progs  map[string]*prog.Program
	tables map[string]*Table // see kept
}

// NewContext returns a context with the paper-equivalent defaults at the
// given scale, writing artifacts under outDir.
func NewContext(outDir string, scale float64) *Context {
	if scale <= 0 {
		scale = 0.5
	}
	return &Context{
		OutDir:       outDir,
		Scale:        scale,
		MaxLibPoints: 500,
		Z:            sampling.Z997,
		RelErr:       0.03,
		Offsets:      3,
		Parallel:     8,
		Log:          io.Discard,
		progs:        map[string]*prog.Program{},
		tables:       map[string]*Table{},
	}
}

func (c *Context) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// BenchNames returns the selected benchmark names.
func (c *Context) BenchNames() []string {
	if len(c.Benches) > 0 {
		return c.Benches
	}
	return prog.SuiteNames()
}

// Program returns the (cached) generated program for a benchmark.
func (c *Context) Program(name string) (*prog.Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.progs[name]; ok {
		return p, nil
	}
	spec, err := prog.ByName(name)
	if err != nil {
		return nil, err
	}
	p := prog.Generate(spec, c.Scale)
	c.progs[name] = p
	return p, nil
}

// --- persistent cache -----------------------------------------------------

func (c *Context) cachePath() string { return filepath.Join(c.OutDir, "cache.json") }

func (c *Context) loadCache() {
	if c.cache != nil {
		return
	}
	c.cache = map[string]json.RawMessage{}
	data, err := os.ReadFile(c.cachePath())
	if err != nil {
		return
	}
	_ = json.Unmarshal(data, &c.cache)
}

// cached fetches key into out (a pointer), returning whether it was found.
func (c *Context) cached(key string, out any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loadCache()
	raw, ok := c.cache[key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// store persists key -> val in the cache file.
func (c *Context) store(key string, val any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loadCache()
	raw, err := json.Marshal(val)
	if err != nil {
		return err
	}
	c.cache[key] = raw
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(c.cache, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.cachePath(), blob, 0o644)
}

// --- benchmark goldens ------------------------------------------------------

// BenchLen returns (computing and caching) the benchmark's dynamic length.
func (c *Context) BenchLen(name string) (uint64, error) {
	key := fmt.Sprintf("benchlen/%s/%.4f", name, c.Scale)
	var n uint64
	if c.cached(key, &n) {
		return n, nil
	}
	p, err := c.Program(name)
	if err != nil {
		return 0, err
	}
	n, err = warm.BenchLength(p, p.TargetLen*4+4_000_000)
	if err != nil {
		return 0, err
	}
	return n, c.store(key, n)
}

// Golden holds a complete-simulation result.
type Golden struct {
	CPI     float64
	Seconds float64 // wall-clock of the complete detailed simulation
}

// GoldenCPI returns (computing and caching) the complete detailed
// simulation CPI — the bias reference (§3: "actual error relative to full
// sim-outorder simulations").
func (c *Context) GoldenCPI(name string, cfg uarch.Config) (Golden, error) {
	key := fmt.Sprintf("golden/%s/%.4f/%s", name, c.Scale, cfg.Name)
	var g Golden
	if c.cached(key, &g) {
		return g, nil
	}
	p, err := c.Program(name)
	if err != nil {
		return g, err
	}
	benchLen, err := c.BenchLen(name)
	if err != nil {
		return g, err
	}
	c.logf("golden: full detailed simulation of %s (%s, %d instructions)...", name, cfg.Name, benchLen)
	t0 := time.Now()
	cpi, _, err := warm.RunFullDetailed(cfg, p, benchLen*2+1000)
	if err != nil {
		return g, err
	}
	g = Golden{CPI: cpi, Seconds: time.Since(t0).Seconds()}
	return g, c.store(key, g)
}

// --- sample designs ----------------------------------------------------------

// minStrideUnits keeps consecutive windows (plus capture run-ahead) from
// overlapping.
func minStrideUnits(cfg uarch.Config) int {
	win := cfg.WindowLen() + 1024 // run-ahead margin
	return win/uarch.MeasureLen + 2
}

// LibraryDesign returns the sample design used for a benchmark's library:
// systematic, at most MaxLibPoints units, spaced widely enough that
// functional warming dominates between windows (the regime the paper
// studies; SMARTS samples ~3k-instruction windows every ~20M instructions).
func (c *Context) LibraryDesign(name string, cfg uarch.Config, offset int) (sampling.Design, error) {
	benchLen, err := c.BenchLen(name)
	if err != nil {
		return sampling.Design{}, err
	}
	population := int(benchLen / uarch.MeasureLen)
	stride := minStrideUnits(cfg)
	// Keep detailed windows ≤ ~10 % of the instruction stream.
	if floor := 10 * cfg.WindowLen() / uarch.MeasureLen; stride < floor {
		stride = floor
	}
	if c.MaxLibPoints > 0 && population/stride > c.MaxLibPoints {
		stride = population / c.MaxLibPoints
	}
	d, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), stride, offset*stride/(c.Offsets+1)+1)
	if err != nil {
		return d, err
	}
	// Jitter the positions: the synthetic benchmarks are loop-periodic and
	// a strictly periodic design aliases with them, biasing any sampler
	// (the effect is on the sample design, not on any warming technique).
	seed := int64(1)
	for _, ch := range name {
		seed = seed*131 + int64(ch)
	}
	d.Jitter(seed+int64(offset)*7919, stride, minStrideUnits(cfg), benchLen)
	return d, nil
}

// --- MRRL analyses -----------------------------------------------------------

// MRRLWarmLens returns (computing and caching) the per-window MRRL warming
// lengths for a benchmark's library design.
func (c *Context) MRRLWarmLens(name string, cfg uarch.Config, offset int) ([]uint64, error) {
	key := fmt.Sprintf("mrrl/%s/%.4f/%s/o%d", name, c.Scale, cfg.Name, offset)
	var lens []uint64
	if c.cached(key, &lens) {
		return lens, nil
	}
	design, err := c.LibraryDesign(name, cfg, offset)
	if err != nil {
		return nil, err
	}
	p, err := c.Program(name)
	if err != nil {
		return nil, err
	}
	c.logf("mrrl: analysis pass for %s (%s, offset %d)...", name, cfg.Name, offset)
	an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
	if err != nil {
		return nil, err
	}
	return an.WarmLens, c.store(key, an.WarmLens)
}

// warmingRuns runs SMARTS (full warming) and AW-MRRL (adaptive warming,
// from the cached MRRL analysis) over the benchmark's library design at
// offset.
func (c *Context) warmingRuns(name string, cfg uarch.Config, offset int, stitched bool) (*warm.SMARTSResult, *mrrl.AWResult, error) {
	p, err := c.Program(name)
	if err != nil {
		return nil, nil, err
	}
	design, err := c.LibraryDesign(name, cfg, offset)
	if err != nil {
		return nil, nil, err
	}
	sm, err := warm.RunSMARTS(cfg, p, design, warm.SMARTSOpts{})
	if err != nil {
		return nil, nil, err
	}
	lens, err := c.MRRLWarmLens(name, cfg, offset)
	if err != nil {
		return nil, nil, err
	}
	an := &mrrl.Analysis{ReuseProb: mrrl.DefaultReuseProb, Granularity: mrrl.DefaultGranularity, WarmLens: lens}
	aw, err := mrrl.RunAW(cfg, p, design, an, mrrl.AWOpts{Stitched: stitched})
	return sm, aw, err
}

// --- live-point libraries ------------------------------------------------------

// LibraryKind selects the library flavour.
type LibraryKind int

// Library flavours.
const (
	LibFull       LibraryKind = iota // full live-state (the paper's design)
	LibRestricted                    // restricted live-state (Figure 5)
	LibAW                            // architectural-only AW-MRRL checkpoints
)

func (k LibraryKind) String() string {
	switch k {
	case LibRestricted:
		return "restricted"
	case LibAW:
		return "aw"
	}
	return "full"
}

// LibraryInfo describes a built library.
type LibraryInfo struct {
	Path              string
	Points            int
	CompressedBytes   int64 // the whole file: shards plus the footer index (≈ 20 B/point)
	UncompressedBytes int64
	CreateSeconds     float64
}

// EnsureLibrary creates (or reuses) a shuffled live-point library for the
// benchmark under the given maximum configuration. All predictor
// configurations in preds are warmed and stored.
func (c *Context) EnsureLibrary(name string, cfg uarch.Config, preds []bpred.Config, kind LibraryKind, offset int) (LibraryInfo, error) {
	// The cache key and the file name carry the container format: an output
	// directory from a build that wrote another format rebuilds its
	// libraries instead of handing the runner a file it refuses.
	key := fmt.Sprintf("library-v2/%s/%.4f/%s/%s/o%d/n%d", name, c.Scale, cfg.Name, kind, offset, c.MaxLibPoints)
	var info LibraryInfo
	if c.cached(key, &info) {
		if _, err := os.Stat(info.Path); err == nil {
			return info, nil
		}
	}
	design, err := c.LibraryDesign(name, cfg, offset)
	if err != nil {
		return info, err
	}
	p, err := c.Program(name)
	if err != nil {
		return info, err
	}

	opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: preds}
	switch kind {
	case LibRestricted:
		opts.Restricted = true
	case LibAW:
		opts.NoMicroarch = true
		lens, err := c.MRRLWarmLens(name, cfg, offset)
		if err != nil {
			return info, err
		}
		opts.FuncWarmLens = lens
	}

	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return info, err
	}
	path := filepath.Join(c.OutDir, fmt.Sprintf("%s-s%.3f-%s-%s-o%d.v2.lplib", name, c.Scale, cfg.Name, kind, offset))

	c.logf("library: creating %d %s live-points for %s (%s, offset %d)...",
		design.Units(), kind, name, cfg.Name, offset)
	t0 := time.Now()
	written, err := lpstore.Create(path, p, design, opts, 0x5EED+int64(offset), lpstore.WriteOpts{})
	if err != nil {
		return info, err
	}
	info = LibraryInfo{
		Path:            path,
		Points:          written.Points,
		CompressedBytes: written.CompressedBytes,
		CreateSeconds:   time.Since(t0).Seconds(),
	}
	return info, c.store(key, info)
}

// perBench measures every selected benchmark, at most Parallel at a time,
// and returns the measurements in suite order, or the first error.
func perBench[T any](c *Context, measure func(name string) (T, error)) ([]T, error) {
	names := c.BenchNames()
	out := make([]T, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, max(c.Parallel, 1))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = measure(name)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spreadPositions picks up to n window positions from the later 60 % of the
// design, evenly spaced, so size/time measurements see steady-state warmed
// structures rather than the cold ramp at program start.
func spreadPositions(positions []uint64, n int) []uint64 {
	if len(positions) <= n {
		return positions
	}
	start := 2 * len(positions) / 5
	tail := positions[start:]
	out := make([]uint64, 0, n)
	step := len(tail) / n
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(tail) && len(out) < n; i += step {
		out = append(out, tail[i])
	}
	return out
}
