package livepoint

import (
	"cmp"
	"slices"

	"livepoints/internal/mem"
)

// MemEntry is one live-state word: a word-aligned byte address and the
// value the window's first read observed there.
type MemEntry struct {
	Addr uint64
	Val  uint64
}

// MemTable holds a live-point's live-state words as an address-sorted
// slice looked up by binary search. It replaces the map[uint64]uint64 the
// hot load path used to rebuild per point: a decoded table reuses its
// backing array across DecodeInto calls, so steady-state decode performs
// no allocation, and lookups stay cache-friendly.
//
// MemTable implements mem.Reader, so it plugs directly under a
// copy-on-write overlay during simulation. It is not safe for concurrent
// mutation; concurrent reads of a decoded (sorted) table are fine.
type MemTable struct {
	entries  []MemEntry
	unsorted bool
}

// Len returns the number of live-state words.
func (t *MemTable) Len() int { return len(t.entries) }

// Reset empties the table, keeping its backing array.
func (t *MemTable) Reset() {
	t.entries = t.entries[:0]
	t.unsorted = false
}

// Set records a word. Setting an address twice keeps the later value.
// Appends in ascending address order (and re-Sets of the current maximum)
// keep the table sorted; anything else defers a sort to the next lookup or
// encode.
func (t *MemTable) Set(addr, val uint64) {
	if n := len(t.entries); n > 0 && t.entries[n-1].Addr == addr {
		t.entries[n-1].Val = val
		return
	}
	if n := len(t.entries); n > 0 && !t.unsorted && addr < t.entries[n-1].Addr {
		t.unsorted = true
	}
	t.entries = append(t.entries, MemEntry{Addr: addr, Val: val})
}

// ensureSorted sorts by address and collapses duplicates keeping the
// last-Set value.
func (t *MemTable) ensureSorted() {
	if !t.unsorted {
		return
	}
	slices.SortStableFunc(t.entries, func(a, b MemEntry) int { return cmp.Compare(a.Addr, b.Addr) })
	out := t.entries[:0]
	for _, e := range t.entries {
		if n := len(out); n > 0 && out[n-1].Addr == e.Addr {
			out[n-1].Val = e.Val // later Set wins (stable sort preserved order)
			continue
		}
		out = append(out, e)
	}
	t.entries = out
	t.unsorted = false
}

// Get returns the stored value for a word-aligned byte address.
func (t *MemTable) Get(addr uint64) (uint64, bool) {
	t.ensureSorted()
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].Addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.entries) && t.entries[lo].Addr == addr {
		return t.entries[lo].Val, true
	}
	return 0, false
}

// ReadWord implements mem.Reader over the captured words: ok=false for
// uncaptured addresses (the paper's "unavailable memory value" case).
func (t *MemTable) ReadWord(addr uint64) (uint64, bool) {
	return t.Get(mem.WordAlign(addr))
}

// Entries returns the address-sorted entries. The slice aliases the
// table; callers must not retain it across a DecodeInto of the owning
// live-point.
func (t *MemTable) Entries() []MemEntry {
	t.ensureSorted()
	return t.entries
}

// setMem replaces the table's contents with the packed (addr, value)
// pairs of a live-point memory section, reusing the backing array. The
// encoder emits pairs address-sorted; a sort is deferred until first
// lookup in the (format-violating but tolerated) unsorted case.
func (t *MemTable) setPacked(b []byte) {
	n := len(b) / 16
	if cap(t.entries) < n {
		t.entries = make([]MemEntry, n)
	} else {
		t.entries = t.entries[:n]
	}
	t.unsorted = false
	for i := 0; i < n; i++ {
		t.entries[i] = MemEntry{
			Addr: le64(b[i*16:]),
			Val:  le64(b[i*16+8:]),
		}
		if i > 0 && t.entries[i].Addr < t.entries[i-1].Addr {
			t.unsorted = true
		}
	}
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// interface check
var _ mem.Reader = (*MemTable)(nil)
