// Command bench is the repository's end-to-end and per-layer benchmark:
// the numbers every later performance or simplification change is judged
// by. See README.md for the catalogue; BENCHMARK.json registers the
// command, the workloads and the metric names.
//
//	go run ./bench                          all workloads, end to end
//	go run ./bench -trace 1                 all workloads, per-layer budget + traces
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                        one run; last stdout line is the result JSON
//	go run ./bench -compare a.json b.json   judge b against a
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"livepoints/internal/sampling"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	passes   int
	trace    bool
	out      string
	scale    float64 // multiplies every library's length; 1 except in the smoke test
}

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in its own child process)")
	flag.Int64Var(&o.seed, "seed", 1, "the only randomness input: design offset, creation shuffle and lpstore.Shuffle seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "cap: once this much pass time has been measured, start no further pass (never fewer than 4; 0: no cap)")
	flag.IntVar(&o.passes, "passes", 0, "run this many timed passes instead of the workload's frozen count")
	flag.IntVar(&trace, "trace", 0, "1: per-layer run (spans around each layer's public calls, trace written to -out); 0: end-to-end run")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result JSON, traces and the temporary libraries")
	flag.BoolVar(&compare, "compare", false, "judge b against the base a: -compare a.json b.json (each may be a comma-separated list of result files, pooled)")
	flag.Parse()
	o.trace, o.scale = trace != 0, 1

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare a.json b.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case o.workload == "":
		err = runAll(o)
	default:
		var rec *record
		if rec, err = runOne(o); err == nil {
			err = rec.emit(o.out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement. Samples holds the per-pass values a
// median was taken over (nil for a count or a single timing).
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func medianOf(samples []float64, unit string) metric {
	return metric{Value: median(samples), Unit: unit, Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75), Samples: samples}
}

// record is everything one run of one workload produced: enough to tell
// whether two records are comparable, and to compare them.
type record struct {
	Workload        string             `json:"workload"`
	Trace           bool               `json:"trace"`
	Seed            int64              `json:"seed"`
	Passes          int                `json:"passes"`
	Correct         bool               `json:"correct"`
	Attempted       int                `json:"attempted"`
	Failed          int                `json:"failed"`
	Failures        []string           `json:"failures,omitempty"`
	Metrics         map[string]metric  `json:"metrics"`
	Info            map[string]float64 `json:"info"` // exact and unjudged: cpi_mean, cpi_relci, points_folded, ...
	Sim             map[string]float64 `json:"sim"`  // simulated totals, compared with golden.json
	SimStatsChanged bool               `json:"sim_stats_changed"`
	Library         *library           `json:"library"`
	Env             environment        `json:"env"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runOne sets a workload up in a temporary directory under o.out and
// runs it end to end or traced.
func runOne(o options) (*record, error) {
	def, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("no such workload %q", o.workload)
	}
	// Server, coordinator, workers and simulation share min(2, nproc)
	// processors, so a 2-core box and a larger one measure the same thing.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "work-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	e, err := setup(def, o.seed, o.scale, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	defer e.close()

	rec := &record{Workload: def.name, Trace: o.trace, Seed: o.seed, Metrics: map[string]metric{}, Info: map[string]float64{}, Sim: map[string]float64{}, Library: e.lib, Env: currentEnv()}
	if o.trace {
		err = runTrace(e, o, rec)
	} else {
		rec.Metrics["setup_s"] = metric{Value: setupS, Unit: "s"}
		err = runEndToEnd(e, o, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	rec.checkGolden(o)
	return rec, nil
}

// minPasses is the fewest timed passes a median is taken over: the
// -seconds cap never cuts a run below it.
const minPasses = 4

// runEndToEnd is the closed, fixed-work, tracing-off loop: one untimed
// warm-up pass, then the workload's frozen count of timed passes (or
// o.passes) back to back. o.seconds only caps a run on a box much slower
// than the one the counts were sized on.
func runEndToEnd(e *env, o options, rec *record) error {
	if _, err := e.pass(true); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	passes := e.def.passes
	if o.passes > 0 {
		passes = o.passes
	}

	var durS, rate []float64
	var measured time.Duration
	var allocBytes uint64
	var points int
	var last passOut
	wire0, req0 := e.wire.bytes.Load(), e.wire.requests.Load()
	for i := 0; i < passes; i++ {
		if o.seconds > 0 && i >= minPasses && measured.Seconds() >= o.seconds {
			break
		}
		// Every pass starts from a collected heap, so that one pass's
		// garbage is not another's GC work.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := e.pass(false)
		runtime.ReadMemStats(&m1)
		broken := err != nil
		if err == nil {
			err = e.check(out)
		}
		rec.Passes++
		rec.Attempted += e.want.N()
		measured += out.dur
		if err != nil {
			rec.Failed += e.want.N()
			rec.Failures = append(rec.Failures, fmt.Sprintf("pass %d: %v", i, err))
			if broken {
				break // the pass itself returned an error, and the next would too
			}
			continue
		}
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		points += out.points
		durS = append(durS, out.dur.Seconds())
		rate = append(rate, float64(out.points)/out.dur.Seconds())
		last = out
	}

	rec.Metrics["points_per_s"] = medianOf(rate, "1/s")
	rec.Metrics["time_to_estimate_s"] = medianOf(durS, "s")
	rec.Metrics["alloc_kb_per_point"] = metric{Value: ratio(float64(allocBytes)/1024, float64(points)), Unit: "KB"}
	rec.Info["wire_kb_per_point"] = ratio(float64(e.wire.bytes.Load()-wire0)/1024, float64(points))
	rec.Info["requests_per_point"] = ratio(float64(e.wire.requests.Load()-req0), float64(points))
	rec.Info["fail_frac"] = ratio(float64(rec.Failed), float64(rec.Attempted))
	rec.Info["peak_rss_mb"] = peakRSSMB()
	rec.Info["points_folded"] = float64(last.points)
	rec.Info["cpi_mean"] = last.est.Mean()
	if last.points > 0 { // the ±CI of no points is infinite, which JSON cannot carry
		rec.Info["cpi_relci"] = last.est.RelCI(sampling.Z997)
	}
	if e.stopRelErr > 0 {
		rec.Info["stop_target_relerr"] = e.stopRelErr
	}
	rec.Sim["points_folded"] = float64(last.points)
	rec.Sim["cpi_mean"] = last.est.Mean()
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// emit prints every metric by name and unit on standard error, writes the
// full record under out, and prints the one-line result the driver reads
// as the last line of standard output. A failed check is an error after
// the line is out.
func (r *record) emit(out string) error {
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-24s %-40s %14.6g %s", r.Workload, name, m.Value, m.Unit)
		if len(m.Samples) > 0 {
			line += fmt.Sprintf("  (median of %d, quartiles %.6g..%.6g)", len(m.Samples), m.Q1, m.Q3)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	for _, name := range sortedKeys(r.Info) {
		fmt.Fprintf(os.Stderr, "%-24s %-40s %14.10g (unjudged)\n", r.Workload, name, r.Info[name])
	}
	fmt.Fprintf(os.Stderr, "%-24s passes=%d attempted=%d failed=%d sim_stats_changed=%v\n", r.Workload, r.Passes, r.Attempted, r.Failed, r.SimStatsChanged)
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "%-24s FAILED %s\n", r.Workload, f)
	}

	full, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recordPath(out, r.Trace, r.Workload), full, 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their check", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// recordPath names the file a run's record is written to.
func recordPath(out string, trace bool, name string) string {
	kind := "e2e"
	if trace {
		kind = "layers"
	}
	return filepath.Join(out, kind+"-"+name+".json")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll re-executes this binary once per workload — a fresh heap, fresh
// pools and a fresh peak RSS each — and merges the children's records
// into one file.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	var merged struct {
		Runs []json.RawMessage `json:"runs"`
	}
	var failed []string
	for _, def := range workloads {
		cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-passes", strconv.Itoa(o.passes),
			"-trace", traceArg, "-out", o.out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		recPath := recordPath(o.out, o.trace, def.name)
		os.Remove(recPath) // never merge a stale record if the child dies early
		if err := cmd.Run(); err != nil {
			failed = append(failed, def.name)
		}
		b, err := os.ReadFile(recPath)
		if err != nil {
			return err
		}
		merged.Runs = append(merged.Runs, bytes.TrimSpace(b))
	}
	b, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return err
	}
	path := recordPath(o.out, o.trace, "all")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
