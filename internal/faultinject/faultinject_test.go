package faultinject

import (
	"testing"
	"time"
)

// TestScheduleDeterministic: decision n for a class must be a pure
// function of (seed, class, n) — the whole reproducibility story rests
// on this.
func TestScheduleDeterministic(t *testing.T) {
	rates := DefaultRates(100 * time.Millisecond)
	a := NewSchedule(42, rates)
	b := NewSchedule(42, rates)
	classes := []string{ClassLeases, ClassResults, ClassPoints, ClassShardData}
	for i := 0; i < 500; i++ {
		for _, c := range classes {
			fa, fb := a.Next(c), b.Next(c)
			if fa != fb {
				t.Fatalf("draw %d class %s diverged: %+v vs %+v", i, c, fa, fb)
			}
		}
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals diverged: %d vs %d", a.Total(), b.Total())
	}
	if a.Total() == 0 {
		t.Fatal("500 draws per class injected nothing; rates are dead")
	}
}

// TestScheduleClassIsolation: draws for one class must not depend on how
// many requests other classes absorbed first (concurrent endpoints would
// otherwise perturb each other's sequences).
func TestScheduleClassIsolation(t *testing.T) {
	rates := DefaultRates(100 * time.Millisecond)
	a := NewSchedule(7, rates)
	b := NewSchedule(7, rates)
	// Burn 100 draws on another class in a only.
	for i := 0; i < 100; i++ {
		a.Next(ClassLeases)
	}
	for i := 0; i < 200; i++ {
		fa, fb := a.Next(ClassPoints), b.Next(ClassPoints)
		if fa != fb {
			t.Fatalf("points draw %d perturbed by leases traffic: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	rates := DefaultRates(100 * time.Millisecond)
	a := NewSchedule(1, rates)
	b := NewSchedule(2, rates)
	same := 0
	const n = 400
	for i := 0; i < n; i++ {
		if a.Next(ClassResults) == b.Next(ClassResults) {
			same++
		}
	}
	if same == n {
		t.Fatal("two seeds produced identical 400-draw schedules")
	}
}

func TestScheduleRatesRespected(t *testing.T) {
	// A rate-1.0 class must always fault; an absent class never.
	s := NewSchedule(9, map[string]Rates{ClassResults: {Dup: 1}})
	for i := 0; i < 50; i++ {
		if f := s.Next(ClassResults); f.Kind != Dup {
			t.Fatalf("draw %d: %v, want dup", i, f.Kind)
		}
		if f := s.Next(ClassLeases); f.Kind != None {
			t.Fatalf("unconfigured class faulted: %v", f.Kind)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"/v1/leases":    ClassLeases,
		"/v1/results":   ClassResults,
		"/v1/run":       ClassRun,
		"/v1/points":    ClassPoints,
		"/v1/stat":      ClassStat,
		"/v1/shards":    ClassShards,
		"/v1/shards/3":  ClassShardData,
		"/v1/shards/12": ClassShardData,
		"/metrics":      ClassOther,
	}
	for path, want := range cases {
		if got := ClassOf(path); got != want {
			t.Errorf("ClassOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestCorruptBody(t *testing.T) {
	jsonBody := []byte(`{"ok":true}`)
	out := CorruptBody("application/json", jsonBody, 5)
	if out[0] != 0x00 {
		t.Fatalf("JSON corruption must poison byte 0, got %#x", out[0])
	}
	if jsonBody[0] != '{' {
		t.Fatal("CorruptBody mutated its input")
	}
	bin := []byte{1, 2, 3, 4}
	out = CorruptBody("application/octet-stream", bin, 2)
	diff := 0
	for i := range bin {
		if bin[i] != out[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("binary corruption flipped %d bytes, want exactly 1", diff)
	}
	if got := CorruptBody("application/json", nil, 0); len(got) != 0 {
		t.Fatalf("empty body corrupted into %v", got)
	}
}
