package sampling

import (
	"math"
	"math/rand"
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

func TestEstimateMergeQuickAgainstSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(400)
		xs := make([]float64, n)
		var serial Estimate
		for i := range xs {
			xs[i] = rng.NormFloat64()*2 + 5
			serial.Add(xs[i])
		}
		// Split into random-size partials and merge them back together.
		var merged Estimate
		for start := 0; start < n; {
			end := start + 1 + rng.Intn(n-start)
			var part Estimate
			for _, x := range xs[start:end] {
				part.Add(x)
			}
			merged.Merge(part)
			start = end
		}
		return merged.N() == serial.N() &&
			math.Abs(merged.Mean()-serial.Mean()) < 1e-9 &&
			math.Abs(merged.Var()-serial.Var()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateMergeEmpty(t *testing.T) {
	var a, b Estimate
	a.Add(1)
	a.Add(3)
	want := a
	a.Merge(b) // merging an empty estimate is a no-op
	if a != want {
		t.Fatalf("merge with empty changed estimate: %+v", a)
	}
	b.Merge(a) // merging into an empty estimate copies
	if b != want {
		t.Fatalf("merge into empty: %+v, want %+v", b, want)
	}
}

func TestMatchedPairMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var serial, left, right MatchedPair
	for i := 0; i < 100; i++ {
		b, e := rng.NormFloat64()+2, rng.NormFloat64()+2.1
		serial.Add(b, e)
		if i < 37 {
			left.Add(b, e)
		} else {
			right.Add(b, e)
		}
	}
	left.Merge(right)
	if left.N() != serial.N() || math.Abs(left.MeanDelta()-serial.MeanDelta()) > 1e-9 {
		t.Fatalf("merged pair n=%d Δ=%v, want n=%d Δ=%v",
			left.N(), left.MeanDelta(), serial.N(), serial.MeanDelta())
	}
	if math.Abs(left.DeltaCI(3)-serial.DeltaCI(3)) > 1e-9 {
		t.Fatalf("merged ΔCI %v, want %v", left.DeltaCI(3), serial.DeltaCI(3))
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

func TestShuffledOrderIsPermutationAndDeterministic(t *testing.T) {
	d, err := NewSystematic(10_000_000, 1000, 2000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	o1 := d.ShuffledOrder(99)
	o2 := d.ShuffledOrder(99)
	o3 := d.ShuffledOrder(100)
	seen := make([]bool, d.Units())
	same12, same13 := true, true
	for i := range o1 {
		if seen[o1[i]] {
			t.Fatal("duplicate index in shuffle")
		}
		seen[o1[i]] = true
		same12 = same12 && o1[i] == o2[i]
		same13 = same13 && o1[i] == o3[i]
	}
	if !same12 {
		t.Fatal("same seed produced different orders")
	}
	if same13 {
		t.Fatal("different seeds produced identical orders")
	}
}

func TestSubSample(t *testing.T) {
	d, _ := NewSystematic(10_000_000, 1000, 2000, 10, 1)
	s := d.SubSample(1, 50)
	if len(s) != 50 {
		t.Fatalf("sub-sample has %d elements", len(s))
	}
	s = d.SubSample(1, 1<<20)
	if len(s) != d.Units() {
		t.Fatal("oversized sub-sample not clamped")
	}
}

func TestOnlineEstimatorStopsAtTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := NewOnline(Z997, 0.05, true)
	n := 0
	for !o.Add(rng.NormFloat64()*0.1 + 1.0) {
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
// and the order of the two matched-pair exits.
func TestRule(t *testing.T) {
	constant := func(n int, v float64) *Estimate {
		var e Estimate
		for i := 0; i < n; i++ {
			e.Add(v)
		}
		return &e
	}
	// pairs of a baseline around base whose delta is d ± noise.
	pairs := func(n int, base, d, noise float64) *MatchedPair {
		rng := rand.New(rand.NewSource(17))
		var mp MatchedPair
		for i := 0; i < n; i++ {
			b := base * (1 + 0.1*rng.NormFloat64())
			mp.Add(b, b+d+noise*rng.NormFloat64())
		}
		return &mp
	}
	target, screen := Rule{Z: Z997, RelErr: 0.05}, Rule{Z: Z997, NoImpact: 0.03}
	both := Rule{Z: Z997, RelErr: 0.05, NoImpact: 0.03}

	for _, tc := range []struct {
		name string
		rule Rule
		est  *Estimate
		want bool
	}{
		{"one short of the CLT floor", target, constant(MinSampleSize-1, 1), false},
		{"zero variance at the floor", target, constant(MinSampleSize, 1), true},
		{"zero mean has no relative error", target, constant(100, 0), false},
		{"negative mean, by magnitude", target, constant(100, -1), true},
		{"no target never stops", Rule{Z: Z997}, constant(100, 1), false},
		{"the screen is not an absolute rule", screen, constant(100, 1), false},
	} {
		if got := tc.rule.Stop(tc.est); got != tc.want {
			t.Errorf("Stop, %s: %v, want %v", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		name           string
		rule           Rule
		mp             *MatchedPair
		stop, noImpact bool
	}{
		{"one pair short of the CLT floor", both, pairs(MinSampleSize-1, 1, 0, 0), false, false},
		{"negligible delta: the screen, asked first", both, pairs(100, 1, 0, 0.001), true, true},
		{"negligible delta, no screen: the target", target, pairs(100, 1, 0, 0.001), true, false},
		{"tight 50% delta: the target, not the screen", both, pairs(100, 1, 0.5, 0.001), true, false},
		{"tight 50% delta, screen alone", screen, pairs(100, 1, 0.5, 0.001), false, false},
		{"noisy delta", both, pairs(100, 1, 0, 2), false, false},
		{"noisy delta, negative baseline", both, pairs(100, -1, 0, 2), false, false},
		{"negligible delta, negative baseline", both, pairs(100, -1, 0, 0.001), true, true},
		{"zero baseline has no yardstick", both, pairs(100, 0, 0, 0.001), false, false},
		{"no rule never stops", Rule{Z: Z997}, pairs(100, 1, 0, 0), false, false},
	} {
		if stop, noImpact := tc.rule.StopPair(tc.mp); stop != tc.stop || noImpact != tc.noImpact {
			t.Errorf("StopPair, %s: (%v, %v), want (%v, %v)", tc.name, stop, noImpact, tc.stop, tc.noImpact)
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
