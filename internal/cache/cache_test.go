package cache

import (
	"testing"
	"testing/quick"
)

func cfg32k() Config {
	return Config{Name: "l1d", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLat: 1}
}

func TestConfigValidate(t *testing.T) {
	good := cfg32k()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, Assoc: 2, LineBytes: 32},
		{Name: "b", SizeBytes: 32 << 10, Assoc: 3, LineBytes: 32}, // non-pow2 sets
		{Name: "c", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 24}, // non-pow2 line
		{Name: "d", SizeBytes: 1000, Assoc: 3, LineBytes: 32},     // not divisible
		{Name: "e", SizeBytes: 1 << 50, Assoc: 2, LineBytes: 32},  // more lines than can be allocated
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if got := good.Sets(); got != 512 {
		t.Fatalf("sets=%d", got)
	}
	if got := good.Lines(); got != 1024 {
		t.Fatalf("lines=%d", got)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(cfg32k())
	if res := c.Access(0x1000, false); res.Hit {
		t.Fatal("cold cache hit")
	}
	if res := c.Access(0x1000, false); !res.Hit {
		t.Fatal("warm line missed")
	}
	if res := c.Access(0x1010, false); !res.Hit {
		t.Fatal("same-line access missed")
	}
	if res := c.Access(0x1020, false); res.Hit {
		t.Fatal("next-line access hit")
	}
	if c.Stat.Accesses != 4 || c.Stat.Misses != 2 {
		t.Fatalf("stats %+v", c.Stat)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 2-way: fill a set with A and B, touch A, then C must evict B.
	c := New(cfg32k())
	setStride := uint64(c.Config().Sets() * c.Config().LineBytes)
	a, b, x := uint64(0x40), 0x40+setStride, 0x40+2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // A is MRU
	c.Access(x, false) // evicts B
	if !c.Probe(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(x) {
		t.Fatal("filled line absent")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	c := New(cfg32k())
	setStride := uint64(c.Config().Sets() * c.Config().LineBytes)
	c.Access(0x40, true) // dirty
	c.Access(0x40+setStride, false)
	res := c.Access(0x40+2*setStride, false) // evicts dirty 0x40
	if !res.VictimDirty {
		t.Fatal("dirty victim not reported")
	}
	if res.VictimBlock != c.BlockOf(0x40) {
		t.Fatalf("victim block %#x, want %#x", res.VictimBlock, c.BlockOf(0x40))
	}
	if c.Stat.Writebacks != 1 {
		t.Fatalf("writebacks=%d", c.Stat.Writebacks)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New(cfg32k())
	c.Access(0x40, false)
	before := c.Clock()
	for i := 0; i < 10; i++ {
		c.Probe(0x40)
		c.Probe(0x999940)
	}
	if c.Clock() != before {
		t.Fatal("probe advanced the clock")
	}
}

func TestInstallPreservesMostRecent(t *testing.T) {
	c := New(Config{Name: "x", SizeBytes: 1 << 10, Assoc: 2, LineBytes: 32, HitLat: 1})
	// Three blocks in one set with distinct recency: install order must
	// not matter.
	s := uint64(c.Config().Sets() * 32)
	blocks := []Line{
		{Block: c.BlockOf(0 * s), Valid: true, Last: 5},
		{Block: c.BlockOf(1 * s), Valid: true, Last: 9},
		{Block: c.BlockOf(2 * s), Valid: true, Last: 1},
	}
	for _, perm := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		c.Reset()
		for _, i := range perm {
			c.Install(blocks[i])
		}
		if !c.Probe(0) || !c.Probe(s) {
			t.Fatalf("perm %v: most recent blocks missing", perm)
		}
		if c.Probe(2 * s) {
			t.Fatalf("perm %v: least recent block survived", perm)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	c := New(cfg32k())
	for i := 0; i < 100; i++ {
		c.Access(uint64(i)*64, i%3 == 0)
	}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d.Access(0xdead00, false)
	if c.Equal(d) {
		t.Fatal("diverged caches equal")
	}
}

func TestMSHRMergeAndFull(t *testing.T) {
	m := NewMSHRFile(2)
	d1 := m.Request(100, 0, 50)
	if d1 != 50 {
		t.Fatalf("first miss done at %d", d1)
	}
	// Secondary miss merges with the outstanding one.
	if d := m.Request(100, 10, 200); d != 50 {
		t.Fatalf("secondary miss done at %d, want 50", d)
	}
	if m.Stat.Secondary != 1 {
		t.Fatal("secondary miss not counted")
	}
	m.Request(101, 10, 80)
	// File full (blocks 100, 101): next miss waits for the earliest (50).
	d := m.Request(102, 20, 120)
	if d != 150 {
		t.Fatalf("full-file miss done at %d, want 120+30 wait", d)
	}
	if m.Stat.FullStall != 30 {
		t.Fatalf("stall cycles %d", m.Stat.FullStall)
	}
	// After time passes, registers retire.
	if got := m.Outstanding(1000); got != 0 {
		t.Fatalf("outstanding=%d at t=1000", got)
	}
}

func TestStoreBufferDrainAndStall(t *testing.T) {
	sb := NewStoreBuffer(2, 10)
	var drained []uint64
	fill := func(a uint64) { drained = append(drained, a) }
	if s := sb.Push(0x100, 0, fill); s != 0 {
		t.Fatalf("stall=%d", s)
	}
	if s := sb.Push(0x108, 1, fill); s != 0 {
		t.Fatalf("stall=%d", s)
	}
	// Buffer full: third push must stall until the head drains.
	s := sb.Push(0x110, 2, fill)
	if s == 0 {
		t.Fatal("full buffer did not stall")
	}
	if len(drained) == 0 || drained[0] != 0x100 {
		t.Fatalf("head not drained in order: %v", drained)
	}
	if !sb.Contains(0x110, 100000, fill) {
		// All entries drain eventually; after that Contains is false.
		t.Log("entry drained")
	}
	if sb.Len(1_000_000) != 0 {
		t.Fatal("buffer did not fully drain")
	}
}

func TestStoreBufferForwarding(t *testing.T) {
	sb := NewStoreBuffer(8, 100)
	sb.Push(0x200, 0, nil)
	if !sb.Contains(0x200, 1, nil) {
		t.Fatal("undrained store not visible for forwarding")
	}
	if sb.Contains(0x208, 1, nil) {
		t.Fatal("wrong address forwarded")
	}
}

func TestBusOccupancy(t *testing.T) {
	b := NewBus("test", 4)
	if got := b.Request(10); got != 10 {
		t.Fatalf("idle bus start %d", got)
	}
	if got := b.Request(11); got != 14 {
		t.Fatalf("busy bus start %d, want 14", got)
	}
	if got := b.Request(100); got != 100 {
		t.Fatalf("idle-again start %d", got)
	}
	if b.WaitCycle != 3 {
		t.Fatalf("wait cycles %d", b.WaitCycle)
	}
}

func TestHierWarmAndTimedConsistent(t *testing.T) {
	// Functional warming and the timed path must produce identical tag
	// state for the same access sequence.
	cfg := Config8WayHier()
	h1 := NewHier(cfg)
	h2 := NewHier(cfg)
	addrs := []uint64{0x1000, 0x2000, 0x1000, 0x40000, 0x80000, 0x2010, 0x100000}
	now := uint64(0)
	for i, a := range addrs {
		h1.WarmData(a, i%2 == 0)
		if i%2 == 0 {
			// The timed path splits stores into issue + commit.
			h2.Load(a, now) // not identical op mix; just exercise both
		} else {
			h2.Load(a, now)
		}
		now += 200
	}
	// Both hierarchies saw the same blocks; probe agreement on presence.
	for _, a := range addrs {
		if h1.L1D.Probe(a) != h2.L1D.Probe(a) {
			t.Fatalf("L1D presence of %#x differs between warm and timed paths", a)
		}
	}
}

// Config8WayHier mirrors the 8-way hierarchy without importing uarch
// (avoids an import cycle in tests).
func Config8WayHier() HierConfig {
	return HierConfig{
		L1I:          Config{Name: "l1i", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLat: 1},
		L1D:          Config{Name: "l1d", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLat: 1},
		L2:           Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 4, LineBytes: 128, HitLat: 12},
		ITLB:         Config{Name: "itlb", SizeBytes: 128 * 4096, Assoc: 4, LineBytes: 4096, HitLat: 0},
		DTLB:         Config{Name: "dtlb", SizeBytes: 256 * 4096, Assoc: 4, LineBytes: 4096, HitLat: 0},
		TLBMissLat:   200,
		MemLat:       100,
		DMSHRs:       8,
		StoreBufSize: 16,
		StoreDrain:   2,
		L2BusBusy:    4,
		MemBusBusy:   8,
	}
}

func TestHierLoadLatencyOrdering(t *testing.T) {
	h := NewHier(Config8WayHier())
	// Cold load: TLB miss + L1 miss + L2 miss + memory.
	cold := h.Load(0x10000, 0)
	// Same line immediately after: everything hits (but MSHR may still
	// cover it — use a later cycle).
	warm := h.Load(0x10000, cold+10) - (cold + 10)
	if warm >= cold {
		t.Fatalf("warm latency %d not below cold %d", warm, cold)
	}
	if warm != uint64(h.Config().L1D.HitLat) {
		t.Fatalf("warm hit latency %d, want %d", warm, h.Config().L1D.HitLat)
	}
	// Same page, different L2 line: TLB hit, caches miss.
	mid := h.Load(0x10000+4096-128, cold+1000) - (cold + 1000)
	if mid >= cold || mid <= warm {
		t.Fatalf("latency ordering broken: cold=%d mid=%d warm=%d", cold, mid, warm)
	}
}

func TestHierStoreForwarding(t *testing.T) {
	h := NewHier(Config8WayHier())
	h.CommitStore(0x3000, 0)
	// A load right after the store commit forwards from the store buffer.
	done := h.Load(0x3000, 1)
	if done-1 != uint64(h.Config().L1D.HitLat) {
		t.Fatalf("forwarded load latency %d", done-1)
	}
}

func TestHierResetTransients(t *testing.T) {
	h := NewHier(Config8WayHier())
	h.Load(0x5000, 0)
	h.CommitStore(0x6000, 0)
	h.ResetTransients()
	if h.SB.Len(0) != 0 {
		t.Fatal("store buffer survived transient reset")
	}
	if h.MSHR.Outstanding(0) != 0 {
		t.Fatal("MSHRs survived transient reset")
	}
	if !h.L1D.Probe(0x5000) {
		t.Fatal("cache contents must survive transient reset")
	}
}

func TestCacheQuickContentsMatchShadow(t *testing.T) {
	// Property: a direct-mapped cache behaves like a map keyed by set.
	f := func(seed uint32) bool {
		c := New(Config{Name: "dm", SizeBytes: 4 << 10, Assoc: 1, LineBytes: 64, HitLat: 1})
		shadow := map[uint64]uint64{} // set -> block
		x := uint64(seed)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := (x >> 16) % (1 << 20)
			block := c.BlockOf(addr)
			set := block & uint64(c.Config().Sets()-1)
			res := c.Access(addr, false)
			prev, present := shadow[set]
			wantHit := present && prev == block
			if res.Hit != wantHit {
				return false
			}
			shadow[set] = block
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
