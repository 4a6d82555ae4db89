package lpcluster

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"livepoints/internal/obs"
	"livepoints/internal/sampling"
)

// The guards on lpcluster's two outside formats — the wire JSON and the run
// journal — that a rebuild of the package must pass unchanged. They were
// added on commit 17606d1, before the package was rebuilt around Coverage,
// Partial, the fold and the lease table, and the constants below are that
// commit's output.

// goldenMatchedSpec is the matched golden journal's run: a target loose
// enough that the synthetic delta satisfies it partway through the library,
// so the resumed run ends on the completion-order merge, not the refold.
var goldenMatchedSpec = RunSpec{Mode: ModeMatched, MemLat: 150, RelErr: 0.0032}

// estBits is an estimate down to the last bit: n, mean and variance.
type estBits [3]uint64

func bitsOf(e sampling.Estimate) estBits {
	return estBits{uint64(e.N()), math.Float64bits(e.Mean()), math.Float64bits(e.Var())}
}

// TestJournalGoldenParent resumes journals written by the coordinator of
// commit 17606d1 (testdata/parent-*.waj) and requires the finished run's
// floats to be the ones that commit produced from the same journals.
//
// Both journals were written over synthStore, whose layout is a function
// of its arguments, by a run that "crashed" with leases folded out of
// order and others in flight; every folded result carried counters and
// timings (k = 1 for the first fold, 2 for the second: unknown fetches
// 10+k, unknown loads 20+k, capture errors k, load 100+k ms, sim 200+k ms).
//
//   - parent-absolute-shard.waj: 40 points in shards of 8, RunSpec{};
//     shards 0, 1, 2 leased, 1 then 0 folded, 2 in flight. Whole-library:
//     the result is the read-order refold.
//   - parent-matched-range.waj: 120 points in shards of 16,
//     goldenMatchedSpec, LeasePoints 8; [0,8) [8,16) [16,24) [24,32)
//     leased, [16,24) then [0,8) folded, the other two in flight. The
//     rule fires at pair 80 of 120: the result is the completion-order
//     merge.
func TestJournalGoldenParent(t *testing.T) {
	for _, tc := range []struct {
		file           string
		points, shard  int
		spec           RunSpec
		opt            Options
		journaled      int // points the journal's results cover
		processed      int
		stopped        bool
		est, base, exp estBits
		delta          estBits
	}{
		{
			file: "parent-absolute-shard.waj", points: 40, shard: 8,
			journaled: 16, processed: 40,
			est: estBits{40, 0x3ff31eb851eb851e, 0x3f8bfd44f3078271},
		},
		{
			file: "parent-matched-range.waj", points: 120, shard: 16,
			spec: goldenMatchedSpec, opt: Options{LeasePoints: 8},
			journaled: 16, processed: 80, stopped: true,
			base:  estBits{80, 0x3ff651eb851eb853, 0x3faba5e353f7ced1},
			exp:   estBits{80, 0x3ff79810624dd2f2, 0x3fae78dbf275e982},
			delta: estBits{80, 0x3fb4624dd2f1aa02, 0x3f26a603c47a40c6},
		},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.waj") // resuming appends to it
			if err := os.WriteFile(path, golden, 0o644); err != nil {
				t.Fatal(err)
			}
			st := synthStore(t, tc.points, tc.shard, true)
			tc.opt.Metrics = obs.NewRegistry()
			c, err := NewJournaledCoordinator(st, tc.spec, tc.opt, path)
			if err != nil {
				t.Fatalf("parent-written journal refused: %v", err)
			}
			defer c.Close()
			if c.Epoch() != 1 {
				t.Fatalf("resumed epoch %d, want 1", c.Epoch())
			}
			if got := c.State().Done; got != tc.journaled {
				t.Fatalf("resumed with %d points folded, journal holds %d", got, tc.journaled)
			}
			drain(t, c, st)
			res, ok := c.Final()
			if !ok {
				t.Fatal("resumed run not finished")
			}
			if res.Processed != tc.processed || res.Stopped != tc.stopped || res.StoppedNoImpact {
				t.Errorf("processed %d stopped %v no-impact %v, want %d %v false",
					res.Processed, res.Stopped, res.StoppedNoImpact, tc.processed, tc.stopped)
			}
			for _, e := range []struct {
				name      string
				got, want estBits
			}{
				{"Est", bitsOf(res.Est), tc.est},
				{"MP.Base", bitsOf(res.MP.Base), tc.base},
				{"MP.Exp", bitsOf(res.MP.Exp), tc.exp},
				{"MP.Delta", bitsOf(res.MP.Delta), tc.delta},
			} {
				if e.got != e.want {
					t.Errorf("%s = {%d, %#x, %#x}, parent had {%d, %#x, %#x}", e.name,
						e.got[0], e.got[1], e.got[2], e.want[0], e.want[1], e.want[2])
				}
			}
			// Only the journaled results carried counters and timings.
			if res.UnknownFetches != 23 || res.UnknownLoads != 43 || res.CaptureErrors != 3 ||
				res.LoadTime != 203*time.Millisecond || res.SimTime != 403*time.Millisecond {
				t.Errorf("replayed counters %d/%d/%d, load %v, sim %v; want 23/43/3, 203ms, 403ms",
					res.UnknownFetches, res.UnknownLoads, res.CaptureErrors, res.LoadTime, res.SimTime)
			}
		})
	}
}

// fillNonZero sets every field reachable from v — through embedded
// structs, pointers and slices — to a non-zero value, so that no omitempty
// hides a key.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// jsonKeys marshals a fully populated *T and returns its top-level keys,
// sorted and space-separated.
func jsonKeys(t *testing.T, ptr any) string {
	t.Helper()
	fillNonZero(reflect.ValueOf(ptr).Elem())
	body, err := json.Marshal(ptr)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestJSONKeySets pins every JSON field name of the protocol and the
// journal. A worker built from another commit speaks to this coordinator,
// and a journal written by another commit resumes under it, only while the
// names hold. The wire types must match exactly; the journal record may
// gain keys (an older journal simply lacks them) but never lose or rename
// one.
func TestJSONKeySets(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ptr   any
		want  string
		grows bool
	}{
		{name: "RunSpec", ptr: new(RunSpec),
			want: "config l2kb memLat mode noImpactThreshold relErr ruu z"},
		{name: "LeaseRequest", ptr: new(LeaseRequest), want: "worker"},
		{name: "Lease", ptr: new(Lease),
			want: "count epoch id kind points shard start ttlMillis"},
		{name: "LeaseResponse", ptr: new(LeaseResponse), want: "done lease wait waitMillis"},
		{name: "Result", ptr: new(Result),
			want: "baseCpis captureErrors cpis epoch expCpis leaseId loadMillis simMillis unknownFetches unknownLoads worker"},
		{name: "ResultResponse", ptr: new(ResultResponse), want: "accepted done"},
		{name: "RunState", ptr: new(RunState),
			want: "activeLeases baseMean captureErrors deltaCI done elapsedMillis epoch etaMillis expMean loadMillis mean n " +
				"pendingLeases phase points pointsPerSec reassigned relCI relDelta simMillis spec stopped stoppedNoImpact " +
				"targetRelErr unknownFetches unknownLoads"},
		{name: "journalRecord", ptr: new(journalRecord), grows: true,
			want: "baseCpis benchmark captureErrors count cpis epoch expCpis kind loadMillis points shard simMillis spec " +
				"start t unknownFetches unknownLoads"},
	} {
		got := jsonKeys(t, tc.ptr)
		if got == tc.want {
			continue
		}
		if tc.grows {
			have := make(map[string]bool)
			for _, k := range strings.Fields(got) {
				have[k] = true
			}
			var lost []string
			for _, k := range strings.Fields(tc.want) {
				if !have[k] {
					lost = append(lost, k)
				}
			}
			if len(lost) == 0 {
				continue
			}
			t.Errorf("%s lost keys %v", tc.name, lost)
		}
		t.Errorf("%s keys:\n got  %s\n want %s", tc.name, got, tc.want)
	}
}
