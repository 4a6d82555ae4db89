// Chaos soaks: full cluster rounds (coordinator + worker fleet over
// localhost HTTP) under deterministic seeded fault schedules, asserting
// after every round that no fault changed the answer, double-folded an
// observation, or leaked a goroutine. External test package: faultinject
// imports lpcluster, so these tests cannot live inside it.
package lpcluster_test

import (
	"context"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"livepoints/internal/faultinject"
	"livepoints/internal/lpcluster"
)

// soakLibrary lazily builds the shared simulatable library for the soak
// tests (one full functional pass, so once per process).
var (
	soakLibOnce sync.Once
	soakLibPath string
	soakLibErr  error
)

func soakLibrary(t *testing.T) string {
	t.Helper()
	soakLibOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lpsoak")
		if err != nil {
			soakLibErr = err
			return
		}
		// Leaks for the process lifetime; every soak test shares it.
		soakLibPath, soakLibErr = faultinject.GenLibrary(dir)
	})
	if soakLibErr != nil {
		t.Fatal(soakLibErr)
	}
	return soakLibPath
}

// seedCount returns how many schedules a sweep runs: the LPSOAK_SEEDS
// env var when set (CI bounds the race job with it), else a -short-aware
// default.
func seedCount(t *testing.T, def int) int {
	if v := os.Getenv("LPSOAK_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad LPSOAK_SEEDS %q", v)
		}
		return n
	}
	if testing.Short() && def > 4 {
		return 4
	}
	return def
}

func seedRange(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

func soakLog(t *testing.T) *slog.Logger {
	if testing.Verbose() {
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return nil
}

// runSoak executes one sweep and applies the cross-seed assertions.
func runSoak(t *testing.T, opt faultinject.SoakOptions) *faultinject.Report {
	t.Helper()
	opt.Library = soakLibrary(t)
	opt.Log = soakLog(t)
	// Generous: race-instrumented sweeps on small machines run many
	// times slower than uninstrumented ones (pair with go test -timeout).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	rep, err := faultinject.Soak(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 {
		t.Fatal("sweep injected zero faults; the harness is not exercising anything")
	}
	return rep
}

// TestSoakAbsoluteTransport is the tentpole acceptance sweep: absolute
// whole-library rounds under client-side (RoundTripper) injection, each
// bit-equal to the undisturbed local fold.
func TestSoakAbsoluteTransport(t *testing.T) {
	n := seedCount(t, 12)
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xA000, n)})
}

// TestSoakMatchedTransport: the same sweep in §6.2 matched-pair mode.
func TestSoakMatchedTransport(t *testing.T) {
	n := seedCount(t, 12)
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xB000, n), Mode: lpcluster.ModeMatched})
}

// TestSoakAbsoluteProxy: server-side injection — the coordinator's own
// replies are damaged rather than the worker's view of the network.
func TestSoakAbsoluteProxy(t *testing.T) {
	n := (seedCount(t, 12) + 1) / 2
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xC000, n), Proxy: true})
}

// TestSoakMatchedProxy completes the mode × injection-side matrix.
func TestSoakMatchedProxy(t *testing.T) {
	n := (seedCount(t, 12) + 1) / 2
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xD000, n), Mode: lpcluster.ModeMatched, Proxy: true})
}

// TestSoakOnlineStopping: §6.1 early-stopping rounds under faults. No
// bit-equality here — the stop point legitimately depends on fold order
// — but the accounting (folded == done) and statistical contracts must
// hold, and nothing may leak.
func TestSoakOnlineStopping(t *testing.T) {
	n := seedCount(t, 8)
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xE000, n), RelErr: 0.5})
}

// TestSoakPinnedRegressions pins the exact schedules that exposed each
// harness-found bug, so the fixes stay regression-tested independently
// of how the sweep ranges above evolve:
//
//   - seeds 0xA000–0xA003 (absolute/transport) drive corrupt and
//     truncated /v1/points bodies through the CRC-verify-and-refetch
//     path (before PointsCRCHeader, a flipped body byte decoded into a
//     plausible point and folded silently wrong data), plus corrupt
//     control-plane JSON through the fatal-ProtocolError path (before
//     the transient() fix, an infinite reconnect loop);
//   - seeds 0xD000–0xD001 (matched/proxy) cover duplicated and
//     post-processing-severed POST /v1/results deliveries against the
//     coordinator's dedup, where a refold would corrupt the pairing.
func TestSoakPinnedRegressions(t *testing.T) {
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xA000, 4)})
	runSoak(t, faultinject.SoakOptions{Seeds: seedRange(0xD000, 2), Mode: lpcluster.ModeMatched, Proxy: true})
}
