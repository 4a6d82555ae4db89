package prog

import (
	"testing"

	"livepoints/internal/functional"
	"livepoints/internal/isa"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range miniSuite() {
		p1 := Generate(spec, 0.01)
		p2 := Generate(spec, 0.01)
		if len(p1.Text) != len(p2.Text) {
			t.Fatalf("%s: text length differs: %d vs %d", spec.Name, len(p1.Text), len(p2.Text))
		}
		for i := range p1.Text {
			if p1.Text[i] != p2.Text[i] {
				t.Fatalf("%s: instruction %d differs", spec.Name, i)
			}
		}
		if len(p1.Data) != len(p2.Data) {
			t.Fatalf("%s: data ranges differ", spec.Name)
		}
		for i := range p1.Data {
			if p1.Data[i].Base != p2.Data[i].Base || len(p1.Data[i].Words) != len(p2.Data[i].Words) {
				t.Fatalf("%s: data range %d differs", spec.Name, i)
			}
		}
	}
}

func TestSuitePrograms_RunToHalt(t *testing.T) {
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := Generate(spec, 0.002) // tiny scale for test speed
			cpu := functional.New(p, p.NewMemory())
			n, err := cpu.RunToHalt(p.TargetLen*4 + 2_000_000)
			if err != nil {
				t.Fatalf("run: %v (after %d instructions)", err, n)
			}
			if n == 0 {
				t.Fatalf("program executed no instructions")
			}
			// Dynamic length should be within a loose factor of target.
			if n > p.TargetLen*4+1_000_000 {
				t.Fatalf("dynamic length %d far beyond target %d", n, p.TargetLen)
			}
			t.Logf("%s: %d dynamic instructions (target %d), %d static, %d data words",
				spec.Name, n, p.TargetLen, p.TextLen(), p.DataWords())
		})
	}
}

func TestProgramFetchBounds(t *testing.T) {
	p := Generate(miniSuite()[0], 0.001)
	if _, ok := p.Fetch(uint64(len(p.Text))); ok {
		t.Fatal("fetch past end of text should fail")
	}
	if _, ok := p.Fetch(0); !ok {
		t.Fatal("fetch of entry should succeed")
	}
}

func TestSuiteUniqueNamesAndSeeds(t *testing.T) {
	names := map[string]bool{}
	seeds := map[int64]bool{}
	for _, s := range Suite() {
		if names[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		if seeds[s.Seed] {
			t.Errorf("duplicate seed %d (%s)", s.Seed, s.Name)
		}
		names[s.Name] = true
		seeds[s.Seed] = true
		if len(s.Phases) == 0 {
			t.Errorf("%s: no phases", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("syn.mcf"); err != nil {
		t.Fatalf("ByName(syn.mcf): %v", err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("ByName should fail for unknown benchmark")
	}
}

func TestKernelKindString(t *testing.T) {
	for k := KStream; k <= KScatter; k++ {
		if k.String() == "" {
			t.Errorf("kernel %d has empty name", k)
		}
	}
}

// TestRegisterZeroNeverWritten checks the generator never targets r0.
func TestRegisterZeroNeverWritten(t *testing.T) {
	for _, spec := range Suite() {
		p := Generate(spec, 0.001)
		for i, in := range p.Text {
			if in.WritesReg() && in.Rd == isa.RegZero {
				t.Fatalf("%s: instruction %d writes r0: %v", spec.Name, i, in.String())
			}
		}
	}
}

// miniSuite returns a small, fast subset: one memory-bound, one
// compute-bound, one branchy benchmark.
func miniSuite() []BenchSpec {
	mini := []BenchSpec{}
	for _, s := range Suite() {
		switch s.Name {
		case "syn.swim", "syn.gzip", "syn.mcf":
			mini = append(mini, s)
		}
	}
	return mini
}
