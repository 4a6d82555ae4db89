package livepoint

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/csr"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// settleGoroutines waits up to five seconds for the goroutine count to fall
// back to g0, failing the test if it does not.
func settleGoroutines(t *testing.T, g0 int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, %d before", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkedEmit wraps emit with the contract Create owes it: it is never
// called concurrently with itself, only with points in program order, and
// never after Create has returned (the caller sets returned then).
type checkedEmit struct {
	t        *testing.T
	calls    int
	busy     atomic.Bool
	returned atomic.Bool
	late     atomic.Bool
}

func (c *checkedEmit) wrap(emit func(*LivePoint) error) func(*LivePoint) error {
	return func(lp *LivePoint) error {
		if c.returned.Load() {
			c.late.Store(true)
		}
		if !c.busy.CompareAndSwap(false, true) {
			c.t.Error("emit called concurrently with itself")
		}
		defer c.busy.Store(false)
		if lp.Index != c.calls {
			c.t.Errorf("emit got point %d as call %d", lp.Index, c.calls)
		}
		c.calls++
		for _, sr := range append(slices.Clone(lp.Caches), lp.TLBs...) {
			if !sortedByBlock(sr.Entries) {
				c.t.Errorf("point %d: %s record handed to emit unsorted", lp.Index, sr.Cfg.Name)
			}
		}
		return emit(lp)
	}
}

// finish records that Create returned and, after giving any stray emit a
// chance to run, checks that none did.
func (c *checkedEmit) finish(g0 int) {
	c.returned.Store(true)
	settleGoroutines(c.t, g0)
	if c.late.Load() {
		c.t.Error("emit called after Create returned")
	}
}

func sortedByBlock(es []csr.Entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].Block >= es[i].Block {
			return false
		}
	}
	return true
}

// TestCreateStopsAtEmitError fails emit at point k: Create returns that
// error, emit is called for points 0..k only, in order, never concurrently
// and never after Create returns, and the emitting goroutine has exited.
func TestCreateStopsAtEmitError(t *testing.T) {
	cfg := uarch.Config8Way()
	p, design := testDesign(t, "syn.gzip", 0.01, cfg, 20)
	if design.Units() < 6 {
		t.Fatalf("design has %d units, want at least 6", design.Units())
	}
	opts := CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
	boom := errors.New("emit refused")
	for _, k := range []int{0, 3, design.Units() - 1} {
		g0 := runtime.NumGoroutine()
		c := &checkedEmit{t: t}
		err := Create(p, design, opts, c.wrap(func(lp *LivePoint) error {
			if lp.Index == k {
				return boom
			}
			return nil
		}))
		c.finish(g0)
		if !errors.Is(err, boom) {
			t.Fatalf("emit failing at %d: Create returned %v", k, err)
		}
		if c.calls != k+1 {
			t.Fatalf("emit failing at %d: called %d times", k, c.calls)
		}
	}
}

// TestCreateStopsAtCaptureError ends the design with a window that starts
// inside the benchmark but ends past it, so the scout of that window
// fails: Create returns the capture error after emitting every earlier
// point, and nothing outlives it.
func TestCreateStopsAtCaptureError(t *testing.T) {
	cfg := uarch.Config8Way()
	p, design := testDesign(t, "syn.gzip", 0.01, cfg, 20)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	design.Positions = append(design.Positions, benchLen-design.UnitLen/2)
	g0 := runtime.NumGoroutine()
	c := &checkedEmit{t: t}
	err = Create(p, design, CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}},
		c.wrap(func(*LivePoint) error { return nil }))
	c.finish(g0)
	if err == nil || !strings.Contains(err.Error(), "scout halted inside window") {
		t.Fatalf("Create over a window past the benchmark's end returned %v, want the scout's error", err)
	}
	if c.calls != design.Units()-1 {
		t.Fatalf("emit called %d times before the failing window %d", c.calls, design.Units()-1)
	}
}

// TestCreateReraisesEmitPanic: emit runs off the caller's goroutine, but a
// panic in it still reaches Create's caller.
func TestCreateReraisesEmitPanic(t *testing.T) {
	cfg := uarch.Config8Way()
	p, design := testDesign(t, "syn.gzip", 0.01, cfg, 20)
	g0 := runtime.NumGoroutine()
	defer func() {
		if v := recover(); v != "emit bug" {
			t.Fatalf("recovered %v, want emit's panic", v)
		}
		settleGoroutines(t, g0)
	}()
	Create(p, design, CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}, func(lp *LivePoint) error {
		if lp.Index == 1 {
			panic("emit bug")
		}
		return nil
	})
	t.Fatal("Create returned after emit panicked")
}
