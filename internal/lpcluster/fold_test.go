package lpcluster

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
)

// reshuffled reshuffles st's index and reopens it, so that a shard's points
// are scattered over the read order instead of contiguous in it.
func reshuffled(t *testing.T, st *lpstore.Store, seed int64) *lpstore.Store {
	t.Helper()
	if err := lpstore.Shuffle(st.Path(), seed); err != nil {
		t.Fatal(err)
	}
	st, err := lpstore.Open(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// wholeLibrary leases out all of st under spec, in leases of the given kind,
// and returns each lease's positions with the partial a worker would post
// for it.
func wholeLibrary(t *testing.T, st *lpstore.Store, spec RunSpec, kind string) (positions [][]int, partials []*Partial) {
	t.Helper()
	table, err := newLeaseTable(st, spec.Rule(), Options{LeasePoints: 7}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for l := table.issue(); l != nil; l = table.issue() {
		pos, err := l.positions(st)
		if err != nil || l.Kind != kind {
			t.Fatalf("lease %+v, want a %s lease (positions: %v)", l.Coverage, kind, err)
		}
		res := leaseResult(t, st, &Lease{Coverage: l.Coverage}, spec.Mode == ModeMatched)
		positions, partials = append(positions, pos), append(partials, &res.Partial)
	}
	return positions, partials
}

// TestFoldSealIsTheSerialFold: whatever order a whole library's partials
// complete in, the sealed fold is the serial read-order fold to the last
// bit — for absolute and matched runs, under shard and range leases, on a
// store whose shards are scattered over the read order.
func TestFoldSealIsTheSerialFold(t *testing.T) {
	st := reshuffled(t, synthStore(t, 61, 9, true), 5)
	var serial ClusterResult
	for pos := 0; pos < st.Count(); pos++ {
		res := leaseResult(t, st, &Lease{Coverage: Coverage{Kind: LeaseRange, Start: pos, Count: 1}}, true)
		serial.Est.Add(res.BaseCPIs[0])
		serial.MP.Add(res.BaseCPIs[0], res.ExpCPIs[0])
	}

	for _, tc := range []struct {
		name string
		spec RunSpec
		kind string
	}{
		// A target no estimate meets forces range leases without ever firing.
		{"absolute/shard", RunSpec{}, LeaseShard},
		{"absolute/range", RunSpec{RelErr: 1e-9}, LeaseRange},
		{"matched/shard", RunSpec{Mode: ModeMatched}, LeaseShard},
		{"matched/range", RunSpec{Mode: ModeMatched, RelErr: 1e-9}, LeaseRange},
	} {
		positions, partials := wholeLibrary(t, st, tc.spec, tc.kind)
		matched := tc.spec.Mode == ModeMatched
		for seed := int64(0); seed < 100; seed++ {
			f := newFold(st.Count(), matched, tc.spec.Rule())
			order := rand.New(rand.NewSource(seed)).Perm(len(partials))
			for i, k := range order {
				if over := f.add(positions[k], partials[k]); over != (i == len(order)-1) {
					t.Fatalf("%s seed %d: add %d of %d reported over=%v", tc.name, seed, i+1, len(order), over)
				}
			}
			f.seal()
			if matched && f.res.MP != serial.MP || !matched && f.res.Est != serial.Est {
				t.Fatalf("%s seed %d: sealed fold is not the serial fold: %+v", tc.name, seed, f.res)
			}
			if f.res.Processed != st.Count() || f.res.Stopped {
				t.Fatalf("%s seed %d: processed %d, stopped %v", tc.name, seed, f.res.Processed, f.res.Stopped)
			}
		}
	}
}

// TestResultAndReplayLeaveTheSameFold: a sequence of results accepted live
// and the same sequence replayed from the journal leave identical fold
// state — every column, estimate, counter and verdict — whether the run is
// still going, sealed by exhausting the library, or stopped by its rule.
func TestResultAndReplayLeaveTheSameFold(t *testing.T) {
	st := reshuffled(t, synthStore(t, 61, 9, true), 5)
	for _, tc := range []struct {
		name     string
		spec     RunSpec
		accept   int // results to accept; 0 = until the run finishes
		finished bool
		stopped  bool
	}{
		{"absolute, running", RunSpec{}, 3, false, false},
		{"absolute, sealed", RunSpec{}, 0, true, false},
		{"absolute, stopped", RunSpec{RelErr: 0.5}, 0, true, true},
		{"matched, running", RunSpec{Mode: ModeMatched, RelErr: 1e-9}, 3, false, false},
		{"matched, sealed", RunSpec{Mode: ModeMatched}, 0, true, false},
		{"matched, stopped", RunSpec{Mode: ModeMatched, NoImpactThreshold: 0.5}, 0, true, true},
	} {
		path := filepath.Join(t.TempDir(), "run.waj")
		opt := Options{LeasePoints: 7, Metrics: obs.NewRegistry()}
		live, err := NewJournaledCoordinator(st, tc.spec, opt, path)
		if err != nil {
			t.Fatal(err)
		}
		// Lease everything the table will give, then post in a shuffled
		// order: acceptance order, not lease order, is what replay repeats.
		var leases []*Lease
		for lr := live.Acquire("w"); lr.Lease != nil; lr = live.Acquire("w") {
			leases = append(leases, lr.Lease)
		}
		rand.New(rand.NewSource(9)).Shuffle(len(leases), func(i, j int) { leases[i], leases[j] = leases[j], leases[i] })
		for i, l := range leases {
			if i == tc.accept && tc.accept > 0 {
				break
			}
			resp, err := live.Result(leaseResult(t, st, l, tc.spec.Mode == ModeMatched))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if resp.Done {
				break
			}
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		replayed, err := NewJournaledCoordinator(st, tc.spec, opt, path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		replayed.Close()

		if live.finished != tc.finished || live.fold.res.Stopped != tc.stopped {
			t.Errorf("%s: live run finished=%v stopped=%v", tc.name, live.finished, live.fold.res.Stopped)
		}
		if replayed.finished != live.finished || !reflect.DeepEqual(replayed.fold, live.fold) {
			t.Errorf("%s: replay left a different fold\nlive     %+v\nreplayed %+v", tc.name, live.fold.res, replayed.fold.res)
		}
	}
}

// TestPartialCheck: the one input check, on both sides of each bound.
func TestPartialCheck(t *testing.T) {
	ok := []float64{1, 0.25, 1e-300, maxCPI}
	if err := (&Partial{CPIs: ok}).check(false, len(ok)); err != nil {
		t.Errorf("believable CPIs refused: %v", err)
	}
	if err := (&Partial{BaseCPIs: ok, ExpCPIs: ok}).check(true, len(ok)); err != nil {
		t.Errorf("believable pairs refused: %v", err)
	}
	for _, bad := range []float64{0, -3, 2 * maxCPI, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		cpis := []float64{1, bad, 1}
		if (&Partial{CPIs: cpis}).check(false, 3) == nil ||
			(&Partial{BaseCPIs: cpis, ExpCPIs: ok[:3]}).check(true, 3) == nil ||
			(&Partial{BaseCPIs: ok[:3], ExpCPIs: cpis}).check(true, 3) == nil {
			t.Errorf("CPI %v accepted", bad)
		}
	}
	if (&Partial{CPIs: ok}).check(false, len(ok)+1) == nil || (&Partial{CPIs: ok}).check(true, len(ok)) == nil ||
		(&Partial{BaseCPIs: ok, ExpCPIs: ok[:1]}).check(true, len(ok)) == nil {
		t.Error("a column of the wrong length accepted")
	}
}
