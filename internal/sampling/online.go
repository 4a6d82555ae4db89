package sampling

import "math"

// OnlineEstimator implements the paper's random-order online reporting
// (§6.1): as shuffled live-points are processed, the points seen so far
// form an unbiased sub-sample, so the running estimate and its confidence
// are valid at every step. Simulation can stop as soon as the target is
// met (never before MinSampleSize observations).
type OnlineEstimator struct {
	est     Estimate
	rule    Rule
	history []Snapshot
	keep    bool
}

// Snapshot is the state of the running estimate after one observation,
// retained when history recording is enabled (for convergence plots).
type Snapshot struct {
	N      int
	Mean   float64
	RelCI  float64
	Target float64
}

// NewOnline returns an online estimator targeting the given relative error
// at confidence z; with relErr <= 0 it has no target and is never satisfied.
func NewOnline(z, relErr float64, recordHistory bool) *OnlineEstimator {
	return &OnlineEstimator{rule: Rule{Z: z, RelErr: relErr}, keep: recordHistory}
}

// Add folds in one observation and reports whether the confidence target
// is now satisfied (simulation may stop).
func (o *OnlineEstimator) Add(x float64) (satisfied bool) {
	o.est.Add(x)
	if o.keep {
		o.history = append(o.history, Snapshot{
			N:      o.est.N(),
			Mean:   o.est.Mean(),
			RelCI:  o.est.RelCI(o.rule.Z),
			Target: o.rule.RelErr,
		})
	}
	return o.Satisfied()
}

// Satisfied reports whether the confidence target is met.
func (o *OnlineEstimator) Satisfied() bool { return o.rule.Stop(&o.est) }

// Estimate returns the current running estimate.
func (o *OnlineEstimator) Estimate() *Estimate { return &o.est }

// History returns the per-observation snapshots (nil unless recording was
// requested).
func (o *OnlineEstimator) History() []Snapshot { return o.history }

// MatchedPair accumulates paired observations from a baseline and an
// experimental configuration measured on the same sample units, building a
// confidence interval directly on the per-unit delta (§6.2, after Ekman &
// Stenström). Because design changes shift most units by a similar amount,
// Var(delta) ≪ Var(absolute), and far fewer units are needed.
type MatchedPair struct {
	Base  Estimate
	Exp   Estimate
	Delta Estimate
}

// Add folds in one paired measurement.
func (mp *MatchedPair) Add(base, exp float64) {
	mp.Base.Add(base)
	mp.Exp.Add(exp)
	mp.Delta.Add(exp - base)
}

// Merge folds another matched-pair accumulator into mp, composing partial
// comparisons built on independent workers into one (see Estimate.Merge).
func (mp *MatchedPair) Merge(other MatchedPair) {
	mp.Base.Merge(other.Base)
	mp.Exp.Merge(other.Exp)
	mp.Delta.Merge(other.Delta)
}

// N returns the number of pairs.
func (mp *MatchedPair) N() int { return mp.Delta.N() }

// MeanDelta returns the estimated performance change.
func (mp *MatchedPair) MeanDelta() float64 { return mp.Delta.Mean() }

// RelDelta returns the change relative to the baseline mean's magnitude.
// Normalizing by |mean| keeps the sign of the delta meaningful when the
// baseline metric itself is negative (a speedup stays a speedup).
func (mp *MatchedPair) RelDelta() float64 {
	if mp.Base.Mean() == 0 {
		return 0
	}
	return mp.Delta.Mean() / math.Abs(mp.Base.Mean())
}

// DeltaCI returns the half-width of the confidence interval on the mean
// delta at confidence z.
func (mp *MatchedPair) DeltaCI(z float64) float64 { return mp.Delta.CIHalfWidth(z) }

// DeltaSatisfied reports whether the delta is known to the given relative
// error (relative to the baseline mean's magnitude — the natural
// yardstick when the delta itself may be near zero). The divisor must be
// |mean|: dividing the (positive) CI half-width by a negative mean would
// make the comparison vacuously true at N = MinSampleSize.
func (mp *MatchedPair) DeltaSatisfied(z, relErr float64) bool {
	if mp.N() < MinSampleSize || mp.Base.Mean() == 0 {
		return false
	}
	return mp.DeltaCI(z)/math.Abs(mp.Base.Mean()) <= relErr
}

// NoImpact reports whether the confidence interval on the delta excludes
// any change larger than threshold·|baseline| — the paper's rapid
// "no appreciable impact" screen (§6.2). As in DeltaSatisfied, a
// negative baseline mean must not flip the interval bounds.
func (mp *MatchedPair) NoImpact(z, threshold float64) bool {
	if mp.N() < MinSampleSize || mp.Base.Mean() == 0 {
		return false
	}
	hi := (mp.Delta.Mean() + mp.DeltaCI(z)) / math.Abs(mp.Base.Mean())
	lo := (mp.Delta.Mean() - mp.DeltaCI(z)) / math.Abs(mp.Base.Mean())
	return hi < threshold && lo > -threshold
}

// SampleSizeReduction returns the factor by which matched-pair comparison
// shrinks the required sample relative to an absolute measurement of the
// experimental configuration at equal precision:
// (cv_abs / cv_delta)² with cv_delta = σ_delta/μ_base.
func (mp *MatchedPair) SampleSizeReduction() float64 {
	if mp.Delta.Std() == 0 {
		return 1
	}
	nAbs := sq(mp.Exp.Std() / mp.Exp.Mean())
	nDelta := sq(mp.Delta.Std() / mp.Base.Mean())
	if nDelta == 0 {
		return 1
	}
	return nAbs / nDelta
}
