package sampling

import "errors"

// Rule is a sampling run's stopping rule: when a prefix of the library may
// stand for the whole (§6.1), judged on an absolute estimate or on a
// matched-pair delta (§6.2). It is the one statement of that decision — the
// local runners and the cluster coordinator stop by it, choose between
// read order and shard-major order by it, and refuse an unshuffled library
// through it. The zero Rule never fires: the run covers the whole library.
type Rule struct {
	// Z is the confidence quantile of both targets.
	Z float64
	// RelErr, when positive, stops the run once the confidence half-width
	// is within ±RelErr of the mean — for matched pairs, the half-width on
	// the delta against the baseline mean.
	RelErr float64
	// NoImpact, when positive, also stops a matched-pair run once the delta
	// is confidently within ±NoImpact of the baseline (the §6.2 screen).
	NoImpact float64
}

// Active reports whether the rule can end a run before the library does. A
// run under an active rule is a truncated sample, so it must take points in
// the library's read order: a shard-major prefix groups physically
// consecutive points, which are correlated.
func (r Rule) Active() bool { return r.RelErr > 0 || r.NoImpact > 0 }

// Check refuses an active rule over an unshuffled library: only a prefix of
// a random order is an unbiased sub-sample, and a confidence interval
// around anything else says nothing about the whole.
func (r Rule) Check(shuffled bool) error {
	if r.Active() && !shuffled {
		return errors.New("a stopping rule needs a shuffled library (reshuffle its index with lpstore.Shuffle)")
	}
	return nil
}

// Stop reports whether an absolute estimate meets the rule.
func (r Rule) Stop(e *Estimate) bool {
	return r.RelErr > 0 && e.Satisfied(r.Z, r.RelErr)
}

// StopPair reports whether a matched-pair comparison meets the rule, and
// whether it was the no-impact screen that did. The screen is asked first:
// a delta confidently within ±NoImpact is the §6.2 fast exit even when the
// interval is also narrow enough for the precision target.
func (r Rule) StopPair(mp *MatchedPair) (stop, noImpact bool) {
	if r.NoImpact > 0 && mp.NoImpact(r.Z, r.NoImpact) {
		return true, true
	}
	return r.RelErr > 0 && mp.DeltaSatisfied(r.Z, r.RelErr), false
}
