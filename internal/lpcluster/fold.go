package lpcluster

import (
	"math"
	"time"

	"livepoints/internal/sampling"
)

// fold is the run's arithmetic: every accepted CPI at its read-order
// position, the running fold, and the stopping rule's verdict on it. It
// has no lock, clock, journal or network; a live Coordinator.Result and a
// journal replay drive it through the same add, which is why a resumed
// run's floats are the crashed run's.
type fold struct {
	// pos holds the folded CPIs by read-order position, one column per
	// configuration, for seal; cols merges partials in completion order
	// until seal, under the run's rule.
	pos  [][]float64
	cols *sampling.Columns

	// res is the run's result so far, and its Est or MP once sealed;
	// Processed counts positions folded. Elapsed and Reassigned are the
	// coordinator's to fill in.
	res ClusterResult
}

// newFold returns the fold of points positions under one configuration,
// or baseline and experimental when matched.
func newFold(points int, matched bool, rule sampling.Rule) *fold {
	f := &fold{pos: [][]float64{make([]float64, points)}}
	if matched {
		f.pos = append(f.pos, make([]float64, points))
	}
	f.cols = sampling.NewColumns(len(f.pos), rule, false)
	return f
}

// add folds one checked partial, whose i-th CPIs belong at positions[i],
// and reports whether the run is over: the rule fired on the merged fold
// (any prefix of a shuffled library is a valid sub-sample, §6.1, so
// completion order is as good as read order) or every position is in.
func (f *fold) add(positions []int, p *Partial) (over bool) {
	r := &f.res
	r.Processed += len(positions)
	r.UnknownFetches += p.UnknownFetches
	r.UnknownLoads += p.UnknownLoads
	r.CaptureErrors += p.CaptureErrors
	r.LoadTime += time.Duration(p.LoadMillis) * time.Millisecond
	r.SimTime += time.Duration(p.SimMillis) * time.Millisecond

	in := p.columns(len(f.pos))
	part := sampling.NewColumns(len(f.pos), sampling.Rule{}, false)
	row := make([]float64, len(f.pos))
	for i, pos := range positions {
		for j, col := range in {
			row[j] = (*col)[i]
			f.pos[j][pos] = row[j]
		}
		part.Add(row...)
	}
	r.Stopped, r.StoppedNoImpact = f.cols.Merge(part)
	return r.Stopped || r.Processed == len(f.pos[0])
}

// seal ends the run and copies its fold into the result: Est for one
// column, MP for two. A run that covered the whole library first refolds
// its columns in read order: the same float operations in the same order
// as a serial local run, whatever order the partials arrived in, so the
// result is bit-equal to RunFile's. A stopped run keeps the merge it
// stopped on.
func (f *fold) seal() {
	if !f.res.Stopped {
		f.cols = sampling.NewColumns(len(f.pos), f.cols.Rule(), false)
		row := make([]float64, len(f.pos))
		for i := range f.pos[0] {
			for j, col := range f.pos {
				row[j] = col[i]
			}
			f.cols.Add(row...)
		}
	}
	if len(f.pos) == 1 {
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
	st.Done, st.N = r.Processed, r.Processed
	if len(f.pos) == 1 {
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
