package sampling

import "math"

// Columns folds k ≥ 1 observations a point, one per configuration. Column
// 0 folds into an Estimate (§6.1) and each column j ≥ 1 with column 0 into
// a MatchedPair (§6.2), through their own Add, so k = 1 is bit-equal to an
// Estimate and k = 2 to a MatchedPair. Over a shuffled library the points
// folded so far are an unbiased sub-sample (§6.1), so the fold is valid at
// every step; it carries the run's stopping rule, asked after every Add.
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

// Ordered is a Columns fed rows in any order: it folds the row put at
// read-order position pos once every lower one has, so it stops where and
// as a serial fold does, on a read-order prefix (the §6.1 sample). A row
// waits in a ring grown only to the widest gap seen; its tag goes to tally.
type Ordered[T any] struct {
	*Columns
	tally func(T)
	ring  []heldRow[T] // the row put at position p waits at ring[p%len(ring)]
}

// heldRow is a ring slot: xs is nil until it is first put, pos stale once folded.
type heldRow[T any] struct {
	pos int
	xs  []float64
	tag T
}

// Reset makes o, keeping its ring, a fold into the empty columns c that
// hands each row's tag to tally, if non-nil; a zero Ordered needs it, and
// Reset(nil, nil) lets go of the last run's columns and tally.
func (o *Ordered[T]) Reset(c *Columns, tally func(T)) {
	o.Columns, o.tally = c, tally
	for i := range o.ring {
		o.ring[i].pos = -1 // stale
	}
}

// Put takes the point at read-order position pos, folds every row that
// then continues the prefix, and returns the rule's verdict on the last
// (false if none). Put each position once, and none after the rule fires.
func (o *Ordered[T]) Put(pos int, tag T, xs ...float64) (stop, noImpact bool) {
	if n := pos - o.est.N() + 1; n > len(o.ring) {
		ring := make([]heldRow[T], max(n, 2*len(o.ring))) // no two waiting rows collide
		for _, h := range o.ring {
			if h.pos > o.est.N() {
				ring[h.pos%len(ring)] = h
			}
		}
		o.ring = ring
	}
	h := &o.ring[pos%len(o.ring)]
	h.pos, h.xs, h.tag = pos, append(h.xs[:0], xs...), tag
	for !stop {
		h = &o.ring[o.est.N()%len(o.ring)]
		if h.xs == nil || h.pos != o.est.N() {
			break
		}
		if o.tally != nil {
			o.tally(h.tag)
		}
		stop, noImpact = o.Add(h.xs...)
	}
	return stop, noImpact
}

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
