package lpcluster

import (
	"math"
	"time"

	"livepoints/internal/sampling"
)

// fold is the run's arithmetic: every accepted CPI put at its read-order
// position into one ordered fold, and the stopping rule's verdict on it. It
// has no lock, clock, journal or network; a live Coordinator.Result and a
// journal replay drive it through the same add, which is why a resumed
// run's floats are the crashed run's.
type fold struct {
	cols             sampling.Ordered[struct{}] // under the run's rule
	row              []float64                  // a point's CPIs, one per configuration
	points, accepted int                        // positions in the library; accepted, folded or held

	// res is the run's result so far, and its Est or MP once sealed;
	// Processed counts positions folded. Elapsed and Reassigned are the
	// coordinator's to fill in.
	res ClusterResult
}

// newFold returns the fold of points positions under one configuration,
// or baseline and experimental when matched.
func newFold(points int, matched bool, rule sampling.Rule) *fold {
	f := &fold{row: make([]float64, 1, 2), points: points}
	if matched {
		f.row = f.row[:2]
	}
	f.cols.Reset(sampling.NewColumns(len(f.row), rule, false), nil)
	return f
}

// add puts one checked partial, whose i-th CPIs belong at positions[i],
// into the fold and sums its counters and timings; it reports whether the
// run is over: the rule fired where a serial run's does, or all is folded.
func (f *fold) add(positions []int, p *Partial) (over bool) {
	r := &f.res
	f.accepted += len(positions)
	r.UnknownFetches += p.UnknownFetches
	r.UnknownLoads += p.UnknownLoads
	r.CaptureErrors += p.CaptureErrors
	r.LoadTime += time.Duration(p.LoadMillis) * time.Millisecond
	r.SimTime += time.Duration(p.SimMillis) * time.Millisecond

	in := p.columns(len(f.row))
	for i, pos := range positions {
		for j, col := range in {
			f.row[j] = (*col)[i]
		}
		if r.Stopped, r.StoppedNoImpact = f.cols.Put(pos, struct{}{}, f.row...); r.Stopped {
			break
		}
	}
	r.Processed = f.cols.Estimate().N()
	return r.Stopped || r.Processed == f.points
}

// seal ends the run and copies its fold into the result: Est for one
// column, MP for two, bit-equal to a serial run's under the same rule.
func (f *fold) seal() {
	if len(f.row) == 1 {
		f.res.Est = *f.cols.Estimate()
	} else {
		f.res.MP = *f.cols.Pair(1)
	}
}

// render writes the fold's share of a run snapshot. The estimate is live
// at every step, not only once sealed: a prefix of a shuffled library is a
// real estimate with a real confidence interval (§6.1).
func (f *fold) render(st *RunState) {
	r := &f.res
	st.Done, st.N = f.accepted, r.Processed
	if len(f.row) == 1 {
		st.Mean = finite(f.cols.Estimate().Mean())
	} else {
		mp := f.cols.Pair(1)
		st.BaseMean = finite(mp.Base.Mean())
		st.ExpMean = finite(mp.Exp.Mean())
		st.RelDelta = finite(mp.RelDelta())
		st.DeltaCI = finite(mp.DeltaCI(f.cols.Rule().Z))
	}
	st.RelCI = finite(f.cols.RelCI())
	st.Stopped, st.StoppedNoImpact = r.Stopped, r.StoppedNoImpact
	st.UnknownFetches, st.UnknownLoads, st.CaptureErrors = r.UnknownFetches, r.UnknownLoads, r.CaptureErrors
	st.LoadMillis, st.SimMillis = r.LoadTime.Milliseconds(), r.SimTime.Milliseconds()
}

// finite maps NaN and ±Inf to 0. The degenerate corners of an empty or
// single-observation estimate produce non-finite values, and
// encoding/json refuses those outright — the whole /v1/run body would be
// lost to report a confidence interval that carries no information.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
