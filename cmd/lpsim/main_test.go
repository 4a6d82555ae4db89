package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"livepoints"
)

// TestMain lets the tests run this binary as lpsim itself.
func TestMain(m *testing.M) {
	if os.Getenv("LPSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func lpsim(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LPSIM_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// TestRefusesUnbuildableMachine checks an out-of-range override is an
// error naming the field, raised before the library is touched, and not a
// crash inside the core.
func TestRefusesUnbuildableMachine(t *testing.T) {
	for _, tc := range []struct{ flag, value, field string }{
		{"-ruu", "1000000000000", "RUUSize"},
		{"-l2kb", "3", "cache l2"},
		{"-l2kb", "1099511627776", "cache l2"},
	} {
		_, stderr, err := lpsim("-lib", "does-not-exist.lplib", "-matched", tc.flag, tc.value)
		if _, exited := err.(*exec.ExitError); !exited {
			t.Fatalf("%s %s: lpsim did not exit non-zero (err %v)", tc.flag, tc.value, err)
		}
		if !strings.Contains(stderr, tc.field) || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%s %s: stderr does not name %s, or is a crash:\n%s", tc.flag, tc.value, tc.field, stderr)
		}
	}
}

// TestCPUProfile checks -cpuprofile leaves a profile of a successful run.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	lib, prof := filepath.Join(dir, "gzip.lplib"), filepath.Join(dir, "cpu.prof")
	p := livepoints.GenerateBenchmark("syn.gzip", 0.01)
	design, err := livepoints.NewDesignFor(p, livepoints.Config8Way(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := livepoints.CreateLibrary(p, design, livepoints.Config8Way(), lib); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := lpsim("-lib", lib, "-err", "0", "-cpuprofile", prof)
	if err != nil {
		t.Fatalf("lpsim: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "CPI = ") {
		t.Errorf("no estimate on stdout:\n%s", stdout)
	}
	// A gzip stream of profile.proto; empty only if the profile never stopped.
	if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile %s: %v, %d bytes, not gzip", prof, err, len(b))
	}
}

// TestRefusesUnknownConfig: a machine name lpsim does not know is an error
// naming it — not, as it used to be, a silent 8-way run — and it is raised
// before the library is opened.
func TestRefusesUnknownConfig(t *testing.T) {
	_, stderr, err := lpsim("-lib", "does-not-exist.lplib", "-config", "bogus")
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("lpsim -config bogus did not exit non-zero (err %v)", err)
	}
	if !strings.Contains(stderr, `"bogus"`) || strings.Contains(stderr, "does-not-exist") {
		t.Errorf("stderr does not name the configuration, or the library was opened first:\n%s", stderr)
	}
}

// TestMatchedSaysItIsSerial: -parallel has no effect on a matched run, and
// lpsim says so instead of ignoring the flag in silence.
func TestMatchedSaysItIsSerial(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		notice bool
	}{
		{[]string{"-matched", "-parallel", "4"}, true},
		{[]string{"-matched"}, false},
		{[]string{"-parallel", "4"}, false},
	} {
		_, stderr, _ := lpsim(append([]string{"-lib", "does-not-exist.lplib"}, tc.args...)...)
		if got := strings.Contains(stderr, "serial"); got != tc.notice {
			t.Errorf("lpsim %v: notice %v, want %v:\n%s", tc.args, got, tc.notice, stderr)
		}
	}
}

// TestRefusesNonV2Library: a library in an older container (a v1 file is
// one gzip stream) is refused with the lpgen command that rebuilds it.
func TestRefusesNonV2Library(t *testing.T) {
	lib := filepath.Join(t.TempDir(), "old.lplib")
	if err := os.WriteFile(lib, []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := lpsim("-lib", lib, "-err", "0")
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("lpsim did not exit non-zero (err %v)", err)
	}
	if !strings.Contains(stderr, "a v1 (sequential gzip) library") || !strings.Contains(stderr, "lpgen -bench <benchmark> -o "+lib) {
		t.Errorf("stderr does not name the format and the rebuild command:\n%s", stderr)
	}
}
