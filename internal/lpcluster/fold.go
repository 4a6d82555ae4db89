package lpcluster

import (
	"math"
	"time"

	"livepoints/internal/sampling"
)

// fold is the run's arithmetic: every accepted CPI at its read-order
// position, the running estimate, and the stopping rule's verdict on it.
// It has no lock, clock, journal or network; a live Coordinator.Result and
// a journal replay drive it through the same add, which is why a resumed
// run's floats are the crashed run's.
type fold struct {
	rule    sampling.Rule
	matched bool

	// cols holds the folded CPIs by read-order position, for seal: one
	// column for an absolute run, baseline and experimental for a matched.
	cols [2][]float64

	// res is the run's result so far. Est (absolute) or MP (matched) merges
	// partials in completion order until seal; Processed counts positions
	// folded. Elapsed and Reassigned are the coordinator's to fill in.
	res ClusterResult
}

func newFold(points int, matched bool, rule sampling.Rule) *fold {
	f := &fold{rule: rule, matched: matched}
	f.cols[0] = make([]float64, points)
	if matched {
		f.cols[1] = make([]float64, points)
	}
	return f
}

// add folds one checked partial, whose i-th CPI belongs at positions[i],
// and reports whether the run is over: the rule fired on the merged
// estimate (any prefix of a shuffled library is a valid sub-sample, §6.1,
// so completion order is as good as read order) or every position is in.
func (f *fold) add(positions []int, p *Partial) (over bool) {
	r := &f.res
	r.Processed += len(positions)
	r.UnknownFetches += p.UnknownFetches
	r.UnknownLoads += p.UnknownLoads
	r.CaptureErrors += p.CaptureErrors
	r.LoadTime += time.Duration(p.LoadMillis) * time.Millisecond
	r.SimTime += time.Duration(p.SimMillis) * time.Millisecond

	if f.matched {
		var part sampling.MatchedPair
		for i, pos := range positions {
			f.cols[0][pos], f.cols[1][pos] = p.BaseCPIs[i], p.ExpCPIs[i]
			part.Add(p.BaseCPIs[i], p.ExpCPIs[i])
		}
		r.MP.Merge(part)
		r.Stopped, r.StoppedNoImpact = f.rule.StopPair(&r.MP)
	} else {
		var part sampling.Estimate
		for i, pos := range positions {
			f.cols[0][pos] = p.CPIs[i]
			part.Add(p.CPIs[i])
		}
		r.Est.Merge(part)
		r.Stopped = f.rule.Stop(&r.Est)
	}
	return r.Stopped || r.Processed == len(f.cols[0])
}

// seal ends the run. A run that covered the whole library refolds its
// columns in read order: the same float operations in the same order as a
// serial local run, whatever order the partials arrived in, so the result
// is bit-equal to RunFile's. A stopped run keeps the merge it stopped on.
func (f *fold) seal() {
	if f.res.Stopped {
		return
	}
	f.res.Est, f.res.MP = sampling.Estimate{}, sampling.MatchedPair{}
	for pos, v := range f.cols[0] {
		if f.matched {
			f.res.MP.Add(v, f.cols[1][pos])
		} else {
			f.res.Est.Add(v)
		}
	}
}

// relCI is the live stopping-rule signal: the relative confidence
// half-width of what has been folded so far — for a matched run the delta's
// half-width against the baseline mean, the §6.2 yardstick. It is 0 until
// there is a mean to measure against.
func (f *fold) relCI() float64 {
	if f.matched {
		if f.res.MP.Base.Mean() == 0 {
			return 0
		}
		return finite(f.res.MP.DeltaCI(f.rule.Z) / math.Abs(f.res.MP.Base.Mean()))
	}
	return finite(f.res.Est.RelCI(f.rule.Z))
}

// render writes the fold's share of a run snapshot. The estimate is live
// at every step, not only once sealed: a prefix of a shuffled library is a
// real estimate with a real confidence interval (§6.1).
func (f *fold) render(st *RunState) {
	r := &f.res
	st.Done, st.N = r.Processed, r.Processed
	if f.matched {
		st.BaseMean = finite(r.MP.Base.Mean())
		st.ExpMean = finite(r.MP.Exp.Mean())
		st.RelDelta = finite(r.MP.RelDelta())
		st.DeltaCI = finite(r.MP.DeltaCI(f.rule.Z))
	} else {
		st.Mean = finite(r.Est.Mean())
	}
	st.RelCI = f.relCI()
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
