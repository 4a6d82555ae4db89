package sampling

import "math"

// Columns folds k ≥ 1 observations a point, one per configuration. Column
// 0 folds into an Estimate (§6.1) and each column j ≥ 1 with column 0 into
// a MatchedPair (§6.2), through their own Add and Merge, so k = 1 is
// bit-equal to an Estimate and k = 2 to a MatchedPair. Over a shuffled
// library the points folded so far are an unbiased sub-sample (§6.1), so
// the fold is valid at every step; it carries the run's stopping rule,
// asked after every Add and Merge.
type Columns struct {
	est     Estimate
	pairs   []MatchedPair // pairs[j-1]: column j against column 0
	rule    Rule
	keep    bool
	history []Snapshot
}

// Snapshot is the state of the running estimate after one observation,
// retained when history recording is enabled (for convergence plots).
type Snapshot struct {
	N     int
	Mean  float64
	RelCI float64
}

// NewColumns returns an empty k-column fold under rule, recording a
// Snapshot per Add if asked.
func NewColumns(k int, rule Rule, recordHistory bool) *Columns {
	return &Columns{pairs: make([]MatchedPair, k-1), rule: rule, keep: recordHistory}
}

// NewOnline returns a one-column fold targeting the given relative error at
// confidence z; with relErr <= 0 it has no target and never stops.
func NewOnline(z, relErr float64, recordHistory bool) *Columns {
	return NewColumns(1, Rule{Z: z, RelErr: relErr}, recordHistory)
}

// Add folds in one point's k observations and returns the rule's verdict.
func (c *Columns) Add(xs ...float64) (stop, noImpact bool) {
	c.est.Add(xs[0])
	for j := range c.pairs {
		c.pairs[j].Add(xs[0], xs[j+1])
	}
	if c.keep {
		c.history = append(c.history, Snapshot{c.est.N(), c.est.Mean(), c.RelCI()})
	}
	return c.rule.Stop(c)
}

// Merge folds another k-column fold into c (see Estimate.Merge) and
// returns the rule's verdict.
func (c *Columns) Merge(other *Columns) (stop, noImpact bool) {
	c.est.Merge(other.est)
	for j := range c.pairs {
		c.pairs[j].Merge(other.pairs[j])
	}
	return c.rule.Stop(c)
}

// Estimate returns column 0's running estimate.
func (c *Columns) Estimate() *Estimate { return &c.est }

// Pair returns column j's comparison against column 0, for 1 ≤ j < k.
func (c *Columns) Pair(j int) *MatchedPair { return &c.pairs[j-1] }

// Rule returns the stopping rule the fold is judged by.
func (c *Columns) Rule() Rule { return c.rule }

// RelCI is the live stopping-rule signal at the rule's z: column 0's
// relative half-width, or with k > 1 the widest RelDeltaCI (+Inf while
// there is no mean to measure against).
func (c *Columns) RelCI() float64 {
	if len(c.pairs) == 0 {
		return c.est.RelCI(c.rule.Z)
	}
	widest := 0.0
	for j := range c.pairs {
		widest = math.Max(widest, c.pairs[j].RelDeltaCI(c.rule.Z))
	}
	return widest
}

// History returns the per-observation snapshots (nil unless recording was
// requested).
func (c *Columns) History() []Snapshot { return c.history }

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

// RelDeltaCI returns the delta's half-width at z relative to the baseline
// mean's magnitude, the natural yardstick when the delta itself may be
// near zero (+Inf with no baseline mean). The divisor must be |mean|: a
// negative one would make every target vacuously met.
func (mp *MatchedPair) RelDeltaCI(z float64) float64 {
	if mp.Base.Mean() == 0 {
		return math.Inf(1)
	}
	return mp.DeltaCI(z) / math.Abs(mp.Base.Mean())
}

// DeltaSatisfied reports whether the delta is known to the given relative
// error (RelDeltaCI) with at least MinSampleSize pairs.
func (mp *MatchedPair) DeltaSatisfied(z, relErr float64) bool {
	return mp.N() >= MinSampleSize && mp.RelDeltaCI(z) <= relErr
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
