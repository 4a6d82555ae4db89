package uarch

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"livepoints/internal/prog"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/core_stats_golden.json from this build's core")

const coreStatsGoldenFile = "testdata/core_stats_golden.json"

// goldenConfigs are the machines TestCoreStatsGolden pins: both Table 1
// columns, and two windows that are not a power of two — one that fills
// and wraps constantly, one small enough that every structural limit binds.
func goldenConfigs() []Config {
	ruu96 := Config8Way()
	ruu96.Name, ruu96.RUUSize, ruu96.LSQSize = "8-way/ruu96", 96, 48
	ruu3 := Config8Way()
	ruu3.Name, ruu3.RUUSize, ruu3.LSQSize = "8-way/ruu3", 3, 2
	return []Config{Config8Way(), Config16Way(), ruu96, ruu3}
}

// TestCoreStatsGolden pins every counter the core reports, for every suite
// benchmark under each of goldenConfigs, to the values recorded in
// testdata. A scheduler change that moves one simulated cycle, one
// wrong-path dispatch or one unknown-state event anywhere in the suite
// fails here. Rerecord with -update only for a deliberate model change.
func TestCoreStatsGolden(t *testing.T) {
	const commits = 20_000
	got := map[string]Stats{}
	for _, spec := range prog.Suite() {
		p := prog.Generate(spec, 0.01)
		for _, cfg := range goldenConfigs() {
			core := newTestCoreOver(p, cfg)
			core.Run(commits)
			got[spec.Name+"/"+cfg.Name] = core.Stat
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coreStatsGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(coreStatsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d rows, this run %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
