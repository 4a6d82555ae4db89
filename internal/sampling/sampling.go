// Package sampling implements the statistical machinery of SMARTS-style
// simulation sampling: streaming mean/variance estimation, confidence
// intervals, required-sample-size computation, systematic sample designs,
// and matched-pair comparison for comparative studies (§6 of the paper).
package sampling

import (
	"fmt"
	"math"
	"math/rand"
)

// Z997 is the normal quantile the paper uses for "99.7 % confidence"
// (three sigma).
const Z997 = 3.0

// MinSampleSize is the minimum sample the paper accepts before trusting
// the central limit theorem (§6.1).
const MinSampleSize = 30

// Estimate is a streaming (Welford) mean/variance accumulator.
type Estimate struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the estimate.
func (e *Estimate) Add(x float64) {
	e.n++
	d := x - e.mean
	e.mean += d / float64(e.n)
	e.m2 += d * (x - e.mean)
}

// N returns the number of observations.
func (e *Estimate) N() int { return e.n }

// Mean returns the sample mean.
func (e *Estimate) Mean() float64 { return e.mean }

// Var returns the unbiased sample variance.
func (e *Estimate) Var() float64 {
	if e.n < 2 {
		return 0
	}
	return e.m2 / float64(e.n-1)
}

// Std returns the sample standard deviation.
func (e *Estimate) Std() float64 { return math.Sqrt(e.Var()) }

// CIHalfWidth returns the confidence-interval half-width z·σ/√n.
func (e *Estimate) CIHalfWidth(z float64) float64 {
	if e.n == 0 {
		return math.Inf(1)
	}
	return z * e.Std() / math.Sqrt(float64(e.n))
}

// RelCI returns the half-width relative to the mean (the paper's "±3 %").
func (e *Estimate) RelCI(z float64) float64 {
	if e.mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(e.CIHalfWidth(z) / e.mean)
}

// Satisfied reports whether the estimate meets a relative-error target at
// confidence z with at least MinSampleSize observations.
func (e *Estimate) Satisfied(z, relErr float64) bool {
	return e.n >= MinSampleSize && e.RelCI(z) <= relErr
}

// String formats the estimate compactly.
func (e *Estimate) String() string {
	return fmt.Sprintf("n=%d mean=%.4f ±%.2f%% (99.7%%)", e.n, e.mean, 100*e.RelCI(Z997))
}

// RequiredN returns the sample size needed to achieve the given relative
// error at confidence z for a population with coefficient of variation cv:
// n = ceil((z·cv/ε)²), floored at MinSampleSize.
func RequiredN(cv, z, relErr float64) int {
	if relErr <= 0 {
		panic("sampling: relative error target must be positive")
	}
	n := int(math.Ceil(sq(z * cv / relErr)))
	if n < MinSampleSize {
		n = MinSampleSize
	}
	return n
}

func sq(x float64) float64 { return x * x }

// Design is a systematic (periodic) sample design over a benchmark: U
// measurement units of UnitLen instructions, the j-th unit starting at
// Positions[j] (an instruction offset from the start of the benchmark).
// All experiments on a benchmark share one design, which is exactly how a
// live-point library fixes window locations in advance (§5).
type Design struct {
	UnitLen   uint64
	WarmLen   uint64 // detailed-warming instructions before each unit
	Positions []uint64
}

// NewSystematic builds a periodic design over a benchmark of length
// benchLen: units of unitLen instructions every strideUnits·unitLen
// instructions, starting at offset·unitLen. The detailed-warming length
// warmLen determines how far before each measurement the detailed window
// opens; positions are clamped so the warming never precedes instruction 0.
func NewSystematic(benchLen, unitLen, warmLen uint64, strideUnits, offset int) (Design, error) {
	if unitLen == 0 || strideUnits <= 0 {
		return Design{}, fmt.Errorf("sampling: bad design parameters unitLen=%d stride=%d", unitLen, strideUnits)
	}
	stride := unitLen * uint64(strideUnits)
	first := uint64(offset) * unitLen
	if first < warmLen {
		first = warmLen
	}
	d := Design{UnitLen: unitLen, WarmLen: warmLen}
	for pos := first; pos+unitLen <= benchLen; pos += stride {
		d.Positions = append(d.Positions, pos)
	}
	if len(d.Positions) == 0 {
		return Design{}, fmt.Errorf("sampling: benchmark of %d instructions too short for any unit", benchLen)
	}
	return d, nil
}

// Units returns the number of measurement units in the design.
func (d Design) Units() int { return len(d.Positions) }

// WindowStart returns the instruction position where the detailed window
// (warming + measurement) for unit j begins.
func (d Design) WindowStart(j int) uint64 { return d.Positions[j] - d.WarmLen }

// WindowLen returns the total detailed window length.
func (d Design) WindowLen() uint64 { return d.WarmLen + d.UnitLen }

// Jitter displaces every position by a deterministic pseudo-random number
// of units within its stride slot ("systematic random sampling"). This
// removes the aliasing a strictly periodic design suffers on periodic
// workloads while keeping windows non-overlapping: the jitter range leaves
// at least minGapUnits between consecutive windows.
func (d *Design) Jitter(seed int64, strideUnits, minGapUnits int, benchLen uint64) {
	maxJit := strideUnits - minGapUnits
	if maxJit <= 1 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Positions {
		j := uint64(rng.Intn(maxJit)) * d.UnitLen
		if lim := benchLen - d.UnitLen - d.Positions[i]; j > lim {
			j = lim
		}
		d.Positions[i] += j
	}
}
