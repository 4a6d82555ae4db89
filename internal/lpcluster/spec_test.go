package lpcluster

import (
	"flag"
	"io"
	"strings"
	"testing"

	"livepoints/internal/obs"
)

// TestSpecFlags: the same arguments give the same RunSpec and Rule whether
// lpsim (-err default 0.03) or lpserved -cluster (-err default 0) parses
// them, under the one policy: a matched run targets ±err/2 on the delta and
// screens at ±err, and -err 0 is the whole library, which an unshuffled
// library may serve.
func TestSpecFlags(t *testing.T) {
	parse := func(defaultErr float64, args ...string) (RunSpec, error) {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		spec := SpecFlags(fs, defaultErr)
		err := fs.Parse(args)
		return spec(), err
	}
	unshuffled := synthStore(t, 40, 8, false)
	for _, tc := range []struct {
		args             []string
		relErr, noImpact float64
		active           bool
	}{
		{[]string{"-err", "0.03"}, 0.03, 0, true},
		{[]string{"-matched", "-memlat", "150", "-err", "0.03"}, 0.015, 0.03, true},
		{[]string{"-matched", "-l2kb", "256", "-err", "0"}, 0, 0, false},
	} {
		lpsim, err := parse(0.03, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		lpserved, err := parse(0, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if lpsim != lpserved || lpsim.Rule() != lpserved.Rule() {
			t.Errorf("%v: lpsim %+v (rule %+v), lpserved %+v (rule %+v)", tc.args, lpsim, lpsim.Rule(), lpserved, lpserved.Rule())
		}
		rule := lpsim.Rule()
		if rule.RelErr != tc.relErr || rule.NoImpact != tc.noImpact || rule.Active() != tc.active {
			t.Errorf("%v: rule %+v, want relErr %v, no-impact %v, active %v", tc.args, rule, tc.relErr, tc.noImpact, tc.active)
		}
		_, err = NewCoordinator(unshuffled, lpsim, Options{Metrics: obs.NewRegistry()})
		if (err == nil) == tc.active {
			t.Errorf("%v: coordinator over an unshuffled library: %v", tc.args, err)
		}
	}
	for _, defaultErr := range []float64{0.03, 0} {
		if spec, _ := parse(defaultErr); spec.RelErr != defaultErr {
			t.Errorf("-err defaults to %v, want %v", spec.RelErr, defaultErr)
		}
		if _, err := parse(defaultErr, "-matched", "-noimpact", "0.03"); err == nil || !strings.Contains(err.Error(), "noimpact") {
			t.Errorf("-noimpact accepted (err %v)", err)
		}
	}
}
