package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEstimateMatchesClosedForm(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var e Estimate
	for _, x := range xs {
		e.Add(x)
	}
	if e.N() != len(xs) {
		t.Fatalf("n=%d", e.N())
	}
	if math.Abs(e.Mean()-5.0) > 1e-12 {
		t.Fatalf("mean=%v", e.Mean())
	}
	// Unbiased sample variance of the classic dataset is 32/7.
	if math.Abs(e.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var=%v", e.Var())
	}
}

func TestEstimateQuickAgainstTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(500)
		xs := make([]float64, n)
		var e Estimate
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 10
			e.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		v := m2 / float64(n-1)
		return math.Abs(e.Mean()-mean) < 1e-9 && math.Abs(e.Var()-v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredN(t *testing.T) {
	// Paper arithmetic: ±3% at z=3 with CV=1 needs (3*1/0.03)^2 = 10000.
	if n := RequiredN(1.0, 3, 0.03); n != 10000 {
		t.Fatalf("RequiredN(cv=1)=%d, want 10000", n)
	}
	// Tiny CV floors at the CLT minimum.
	if n := RequiredN(0.001, 3, 0.03); n != MinSampleSize {
		t.Fatalf("RequiredN(cv=0.001)=%d, want %d", n, MinSampleSize)
	}
}

func TestRequiredNPanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RequiredN with zero target should panic")
		}
	}()
	RequiredN(1, 3, 0)
}

func TestSatisfiedNeedsMinSample(t *testing.T) {
	var e Estimate
	for i := 0; i < MinSampleSize-1; i++ {
		e.Add(1.0)
	}
	if e.Satisfied(Z997, 0.5) {
		t.Fatal("satisfied below the CLT minimum")
	}
	e.Add(1.0)
	if !e.Satisfied(Z997, 0.5) {
		t.Fatal("identical observations should satisfy any target at n=30")
	}
}

func TestCIShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var e Estimate
	var prev float64 = math.Inf(1)
	for step := 0; step < 4; step++ {
		for i := 0; i < 1000; i++ {
			e.Add(rng.NormFloat64() + 5)
		}
		ci := e.CIHalfWidth(Z997)
		if ci >= prev {
			t.Fatalf("CI did not shrink: %v -> %v", prev, ci)
		}
		prev = ci
	}
}

func TestCICoverage(t *testing.T) {
	// 99.7% intervals from normal samples should cover the true mean in
	// the vast majority of trials.
	rng := rand.New(rand.NewSource(7))
	const trials = 300
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var e Estimate
		for i := 0; i < 200; i++ {
			e.Add(rng.NormFloat64()*2 + 42)
		}
		if math.Abs(e.Mean()-42) <= e.CIHalfWidth(Z997) {
			covered++
		}
	}
	if covered < trials*95/100 {
		t.Fatalf("99.7%% CI covered truth in only %d/%d trials", covered, trials)
	}
}

func TestNewSystematicDesign(t *testing.T) {
	d, err := NewSystematic(1_000_000, 1000, 2000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Units() == 0 {
		t.Fatal("no units")
	}
	for j := 0; j < d.Units(); j++ {
		if d.WindowStart(j) > d.Positions[j] {
			t.Fatal("window start after measurement start")
		}
		if d.Positions[j]+d.UnitLen > 1_000_000 {
			t.Fatal("unit past benchmark end")
		}
		if j > 0 && d.Positions[j] <= d.Positions[j-1] {
			t.Fatal("positions not increasing")
		}
	}
	// First window's warming must not precede instruction 0.
	if d.WindowStart(0) > d.Positions[0] {
		t.Fatal("underflow in first window")
	}
}

func TestNewSystematicRejectsBadParams(t *testing.T) {
	if _, err := NewSystematic(1000, 0, 0, 1, 0); err == nil {
		t.Fatal("zero unit length accepted")
	}
	if _, err := NewSystematic(1000, 1000, 0, 0, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, err := NewSystematic(500, 1000, 0, 1, 0); err == nil {
		t.Fatal("benchmark shorter than a unit accepted")
	}
}

func TestOnlineEstimatorStopsAtTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := NewOnline(Z997, 0.05, true)
	n := 0
	for {
		stop, noImpact := o.Add(rng.NormFloat64()*0.1 + 1.0)
		if noImpact {
			t.Fatal("a one-column fold reported the no-impact screen")
		}
		if stop {
			break
		}
		n++
		if n > 100_000 {
			t.Fatal("never satisfied")
		}
	}
	if o.Estimate().N() < MinSampleSize {
		t.Fatal("stopped before CLT minimum")
	}
	if got := len(o.History()); got != o.Estimate().N() {
		t.Fatalf("history %d entries, want %d", got, o.Estimate().N())
	}
}

// TestColumnsQuickMatchesIndependentFolds: k columns fold to the last bit
// of an Estimate of column 0 and a MatchedPair of each later column against
// it, folded the same way.
func TestColumnsQuickMatchesIndependentFolds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, n := 1+rng.Intn(3), 1+rng.Intn(300)
		c := NewColumns(k, Rule{}, false)
		var est Estimate
		pairs := make([]MatchedPair, k)
		for i := 0; i < n; i++ {
			row := make([]float64, k)
			for j := range row {
				row[j] = rng.NormFloat64()*0.3 + 1 + 0.1*float64(j)
			}
			c.Add(row...)
			est.Add(row[0])
			for j := 1; j < k; j++ {
				pairs[j].Add(row[0], row[j])
			}
		}
		ok := *c.Estimate() == est
		for j := 1; j < k; j++ {
			ok = ok && *c.Pair(j) == pairs[j]
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedPutIsTheSerialFold: rows put in any order fold as the serial
// Add of the same rows in read order does: the same stop, on the same
// point, with the same columns, history and verdict, and the tags of
// exactly the folded rows tallied in read order. The rules are an
// absolute target and a matched screen that fire partway through; the
// orders range from mild reordering to whole-run shuffles. One Ordered
// serves every case, Reset between them, as a worker's serves its passes.
func TestOrderedPutIsTheSerialFold(t *testing.T) {
	var o Ordered[int]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, n := 1+rng.Intn(2), 40+rng.Intn(200)
		rule := Rule{Z: Z997, RelErr: 0.02 + 0.1*rng.Float64()}
		if k == 2 {
			rule = Rule{Z: Z997, NoImpact: 0.01 + 0.1*rng.Float64()}
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{1 + 0.3*rng.Float64()}
			if k == 2 {
				rows[i] = append(rows[i], rows[i][0]*(1+0.01*rng.NormFloat64()))
			}
		}
		serial := NewColumns(k, rule, true)
		var stop, noImpact bool
		folded := n
		for i, row := range rows {
			if stop, noImpact = serial.Add(row...); stop {
				folded = i + 1
				break
			}
		}

		// A window of w positions is put in a random order before the next.
		var tags []int
		cols := NewColumns(k, rule, true)
		o.Reset(cols, func(pos int) { tags = append(tags, pos) })
		var gotStop, gotNoImpact bool
		w := 1 + rng.Intn(n)
	puts:
		for lo := 0; lo < n; lo += w {
			for _, i := range rng.Perm(min(w, n-lo)) {
				if gotStop, gotNoImpact = o.Put(lo+i, lo+i, rows[lo+i]...); gotStop {
					break puts
				}
			}
		}
		if gotStop != stop || gotNoImpact != noImpact || len(tags) != folded {
			return false
		}
		for i, pos := range tags {
			if pos != i {
				return false
			}
		}
		return reflect.DeepEqual(cols, serial)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchedPairReduction(t *testing.T) {
	// Correlated pairs: delta variance far below absolute variance.
	rng := rand.New(rand.NewSource(11))
	var mp MatchedPair
	for i := 0; i < 2000; i++ {
		base := 1.0 + rng.NormFloat64()*0.5 // high absolute variance
		mp.Add(base, base*1.05)             // uniform +5% effect
	}
	if r := mp.SampleSizeReduction(); r < 10 {
		t.Fatalf("expected large reduction for uniform effect, got %.1fx", r)
	}
	if d := mp.RelDelta(); math.Abs(d-0.05) > 0.01 {
		t.Fatalf("RelDelta %.4f, want ~0.05", d)
	}
}

func TestMatchedPairNoImpact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var mp MatchedPair
	for i := 0; i < 100; i++ {
		base := 1.0 + rng.NormFloat64()*0.3
		mp.Add(base, base+rng.NormFloat64()*0.001) // negligible change
	}
	if !mp.NoImpact(Z997, 0.03) {
		t.Fatal("negligible change not screened as no-impact")
	}
	var mp2 MatchedPair
	for i := 0; i < 100; i++ {
		base := 1.0 + rng.NormFloat64()*0.3
		mp2.Add(base, base*1.5) // huge change
	}
	if mp2.NoImpact(Z997, 0.03) {
		t.Fatal("50% change screened as no-impact")
	}
}

func TestMatchedPairDeltaSatisfied(t *testing.T) {
	var mp MatchedPair
	for i := 0; i < MinSampleSize; i++ {
		mp.Add(1.0, 1.1)
	}
	if !mp.DeltaSatisfied(Z997, 0.01) {
		t.Fatal("constant delta should satisfy immediately at n=30")
	}
}

// TestMatchedPairNegativeBaseline: the ratio helpers normalize by the
// baseline mean's magnitude. Before the math.Abs fix, a negative
// baseline flipped every threshold comparison — DeltaSatisfied's
// positive CI half-width divided by a negative mean was vacuously below
// any target, so a wide-open comparison "satisfied" at n=30, and
// NoImpact's interval bounds swapped sign.
func TestMatchedPairNegativeBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	// Wide-open delta on a negative baseline: must NOT satisfy a tight
	// target, must NOT screen as no-impact.
	var wide MatchedPair
	for i := 0; i < 100; i++ {
		base := -1.0 + rng.NormFloat64()*0.3
		wide.Add(base, base+rng.NormFloat64()*2.0)
	}
	if wide.DeltaSatisfied(Z997, 0.01) {
		t.Fatal("noisy delta on a negative baseline claimed ±1% satisfaction")
	}
	if wide.NoImpact(Z997, 0.03) {
		t.Fatal("noisy delta on a negative baseline screened as no-impact")
	}

	// Tight delta on a negative baseline: behaves exactly like its
	// positive mirror image.
	var neg, pos MatchedPair
	for i := 0; i < 100; i++ {
		base := 1.0 + rng.NormFloat64()*0.1
		d := rng.NormFloat64() * 0.001
		pos.Add(base, base+d)
		neg.Add(-base, -base+d)
	}
	if pos.DeltaSatisfied(Z997, 0.05) != neg.DeltaSatisfied(Z997, 0.05) {
		t.Fatalf("DeltaSatisfied asymmetric in baseline sign: pos=%v neg=%v",
			pos.DeltaSatisfied(Z997, 0.05), neg.DeltaSatisfied(Z997, 0.05))
	}
	if pos.NoImpact(Z997, 0.03) != neg.NoImpact(Z997, 0.03) {
		t.Fatalf("NoImpact asymmetric in baseline sign: pos=%v neg=%v",
			pos.NoImpact(Z997, 0.03), neg.NoImpact(Z997, 0.03))
	}
	if !neg.NoImpact(Z997, 0.03) {
		t.Fatal("negligible change on a negative baseline not screened as no-impact")
	}

	// RelDelta keeps the delta's own sign regardless of baseline sign: a
	// +0.05 absolute delta is a +5% relative change whether the metric
	// runs positive or negative.
	var rd MatchedPair
	for i := 0; i < MinSampleSize; i++ {
		rd.Add(-1.0, -0.95) // delta = +0.05 on baseline mean -1.0
	}
	if got := rd.RelDelta(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("RelDelta on negative baseline %.6f, want +0.05", got)
	}
}

// TestRule walks the stopping rule through the corners where a looser
// statement of it has gone wrong before: the CLT floor, a mean of zero, a
// negative baseline (the yardstick is its magnitude), a rule that is off,
// the order of the two matched-pair exits, and a third column that must
// meet the rule as well.
func TestRule(t *testing.T) {
	constant := func(n int, v float64) *Columns {
		c := NewColumns(1, Rule{}, false)
		for i := 0; i < n; i++ {
			c.Add(v)
		}
		return c
	}
	// pairs of a baseline around base whose deltas are d ± noise, one
	// experimental column per delta.
	pairs := func(n int, base, noise float64, d ...float64) *Columns {
		rng := rand.New(rand.NewSource(17))
		c := NewColumns(1+len(d), Rule{}, false)
		row := make([]float64, 1+len(d))
		for i := 0; i < n; i++ {
			row[0] = base * (1 + 0.1*rng.NormFloat64())
			for j, dj := range d {
				row[1+j] = row[0] + dj + noise*rng.NormFloat64()
			}
			c.Add(row...)
		}
		return c
	}
	target, screen := Rule{Z: Z997, RelErr: 0.05}, Rule{Z: Z997, NoImpact: 0.03}
	both := Rule{Z: Z997, RelErr: 0.05, NoImpact: 0.03}

	for _, tc := range []struct {
		name           string
		rule           Rule
		cols           *Columns
		stop, noImpact bool
	}{
		{"one short of the CLT floor", target, constant(MinSampleSize-1, 1), false, false},
		{"zero variance at the floor", target, constant(MinSampleSize, 1), true, false},
		{"zero mean has no relative error", target, constant(100, 0), false, false},
		{"negative mean, by magnitude", target, constant(100, -1), true, false},
		{"no target never stops", Rule{Z: Z997}, constant(100, 1), false, false},
		{"the screen is not an absolute rule", screen, constant(100, 1), false, false},

		{"one pair short of the CLT floor", both, pairs(MinSampleSize-1, 1, 0, 0), false, false},
		{"negligible delta: the screen, asked first", both, pairs(100, 1, 0.001, 0), true, true},
		{"negligible delta, no screen: the target", target, pairs(100, 1, 0.001, 0), true, false},
		{"tight 50% delta: the target, not the screen", both, pairs(100, 1, 0.001, 0.5), true, false},
		{"tight 50% delta, screen alone", screen, pairs(100, 1, 0.001, 0.5), false, false},
		{"noisy delta", both, pairs(100, 1, 2, 0), false, false},
		{"noisy delta, negative baseline", both, pairs(100, -1, 2, 0), false, false},
		{"negligible delta, negative baseline", both, pairs(100, -1, 0.001, 0), true, true},
		{"zero baseline has no yardstick", both, pairs(100, 0, 0.001, 0), false, false},
		{"no rule never stops", Rule{Z: Z997}, pairs(100, 1, 0, 0), false, false},

		{"two negligible deltas: the screen", both, pairs(100, 1, 0.001, 0, 0), true, true},
		{"one negligible, one tight 50% delta: the target", both, pairs(100, 1, 0.001, 0, 0.5), true, false},
		{"one comparison short of the screen", screen, pairs(100, 1, 0.001, 0, 0.5), false, false},
	} {
		if stop, noImpact := tc.rule.Stop(tc.cols); stop != tc.stop || noImpact != tc.noImpact {
			t.Errorf("Stop, %s: (%v, %v), want (%v, %v)", tc.name, stop, noImpact, tc.stop, tc.noImpact)
		}
	}

	for _, r := range []Rule{target, screen, both} {
		if !r.Active() || r.Check(false) == nil || r.Check(true) != nil {
			t.Errorf("%+v: active %v, unshuffled %v, shuffled %v", r, r.Active(), r.Check(false), r.Check(true))
		}
	}
	if off := (Rule{Z: Z997}); off.Active() || off.Check(false) != nil {
		t.Errorf("the zero rule: active %v, unshuffled %v", off.Active(), off.Check(false))
	}
}
