package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := New()
	v, ok := m.ReadWord(0x1234_5678 &^ 7)
	if !ok || v != 0 {
		t.Fatalf("unmapped read: %d %v", v, ok)
	}
	if len(m.pages) != 0 {
		t.Fatal("read should not allocate")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := New()
	m.WriteWord(0x1000, 42)
	m.WriteWord(0x1008, 43)
	if v, _ := m.ReadWord(0x1000); v != 42 {
		t.Fatalf("got %d", v)
	}
	if v, _ := m.ReadWord(0x1008); v != 43 {
		t.Fatalf("got %d", v)
	}
	if len(m.pages) != 1 {
		t.Fatalf("pages=%d, want 1 (same page)", len(m.pages))
	}
	m.WriteWord(0x1000+PageBytes, 1)
	if len(m.pages) != 2 {
		t.Fatalf("pages=%d, want 2", len(m.pages))
	}
	if m.FootprintBytes() != 2*PageBytes {
		t.Fatalf("footprint=%d", m.FootprintBytes())
	}
}

func TestMemoryQuickReadBack(t *testing.T) {
	m := New()
	shadow := map[uint64]uint64{}
	f := func(addr, val uint64) bool {
		a := WordAlign(addr % (1 << 32))
		m.WriteWord(a, val)
		shadow[a] = val
		for k, want := range shadow {
			if got, _ := m.ReadWord(k); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	m := New()
	m.WriteWord(0x2000, 7)
	c := m.Clone()
	c.WriteWord(0x2000, 8)
	if v, _ := m.ReadWord(0x2000); v != 7 {
		t.Fatal("clone aliases original")
	}
	if v, _ := c.ReadWord(0x2000); v != 8 {
		t.Fatal("clone write lost")
	}
}

func TestOverlayCopyOnWrite(t *testing.T) {
	base := New()
	base.WriteWord(0x100, 1)
	o := NewOverlay(base)
	if v, ok := o.ReadWord(0x100); !ok || v != 1 {
		t.Fatal("overlay should read through")
	}
	o.WriteWord(0x100, 2)
	if v, _ := o.ReadWord(0x100); v != 2 {
		t.Fatal("overlay write invisible")
	}
	if v, _ := base.ReadWord(0x100); v != 1 {
		t.Fatal("overlay write leaked to base")
	}
	if o.Dirty() != 1 {
		t.Fatalf("dirty=%d", o.Dirty())
	}
	o.Reset()
	if v, _ := o.ReadWord(0x100); v != 1 {
		t.Fatal("reset did not discard writes")
	}
}

func TestOverlayObserverFirstReadOnly(t *testing.T) {
	base := New()
	base.WriteWord(0x100, 11)
	base.WriteWord(0x108, 22)
	o := NewOverlay(base)
	got := map[uint64]uint64{}
	o.Observe(func(addr, val uint64, ok bool) {
		if !ok {
			t.Fatalf("full memory reported unavailable word %#x", addr)
		}
		if _, dup := got[addr]; dup {
			t.Fatalf("observer fired twice for %#x", addr)
		}
		got[addr] = val
	})
	o.ReadWord(0x100)
	o.ReadWord(0x100) // repeated: no second callback
	o.ReadWord(0x108)
	o.WriteWord(0x110, 5)
	o.ReadWord(0x110) // overlay hit: no base read, no callback
	if len(got) != 2 || got[0x100] != 11 || got[0x108] != 22 {
		t.Fatalf("observed %v", got)
	}
}

func TestOverlayObserverSeesPreWriteValue(t *testing.T) {
	// The observer must capture the value BEFORE any overlay write: this
	// is what makes live-state capture correct for read-then-write words.
	base := New()
	base.WriteWord(0x200, 99)
	o := NewOverlay(base)
	var captured uint64
	o.Observe(func(addr, val uint64, ok bool) { captured = val })
	o.ReadWord(0x200)
	o.WriteWord(0x200, 1)
	o.ReadWord(0x200)
	if captured != 99 {
		t.Fatalf("captured %d, want pre-write 99", captured)
	}
}

func TestImageUnavailable(t *testing.T) {
	im := NewImage(map[uint64]uint64{0x100: 5})
	if v, ok := im.ReadWord(0x100); !ok || v != 5 {
		t.Fatal("captured word unavailable")
	}
	if _, ok := im.ReadWord(0x108); ok {
		t.Fatal("uncaptured word reported available")
	}
	if im.Len() != 1 {
		t.Fatalf("len=%d", im.Len())
	}
	// Overlay over an image: writes make words available.
	o := NewOverlay(im)
	o.WriteWord(0x108, 7)
	if v, ok := o.ReadWord(0x108); !ok || v != 7 {
		t.Fatal("overlay write over image not visible")
	}
	if _, ok := o.ReadWord(0x110); ok {
		t.Fatal("unavailable word leaked through overlay")
	}
}

func TestWordAlign(t *testing.T) {
	if WordAlign(0x107) != 0x100 {
		t.Fatal("alignment broken")
	}
	if WordAlign(0x100) != 0x100 {
		t.Fatal("aligned address changed")
	}
}
