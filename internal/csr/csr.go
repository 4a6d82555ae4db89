// Package csr implements the adaptable warmed-cache representations of
// §4.3: the Cache Set Record (CSR), which stores the recency-ordered
// resident blocks of a maximum cache configuration and can exactly
// reconstruct any smaller and/or less associative configuration under LRU;
// and the Memory Timestamp Record (MTR), which stores the last-access
// timestamp of every block ever touched and trades footprint-proportional
// storage for geometry-independent reconstruction.
package csr

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"livepoints/internal/cache"
)

// Entry is one recorded cache block: full block address, last-access
// timestamp in the capture clock domain, and dirtiness.
type Entry struct {
	Block uint64
	Last  uint64
	Dirty bool
}

// SetRecord is a Cache Set Record: the visible state of a cache captured
// at its maximum configuration. Storage is proportional to the captured
// cache's tag array, independent of application footprint.
type SetRecord struct {
	Cfg     cache.Config // the configuration the state was captured at
	Entries []Entry      // sorted by (Block) for deterministic encoding
}

// Capture snapshots a cache's visible state into a SetRecord.
func Capture(c *cache.Cache) *SetRecord {
	sr := CaptureUnsorted(c)
	sr.Sort()
	return sr
}

// CaptureUnsorted is the first half of Capture: it copies the cache's
// valid lines in the cache's own order, so the record no longer depends on
// the cache, and leaves the sort to Sort. Creation copies on the goroutine
// that owns the warming cache and sorts on another.
func CaptureUnsorted(c *cache.Cache) *SetRecord {
	sr := &SetRecord{Cfg: c.Config(), Entries: make([]Entry, 0, c.Config().Lines())}
	c.VisitLines(func(l cache.Line) {
		sr.Entries = append(sr.Entries, Entry{Block: l.Block, Last: l.Last, Dirty: l.Dirty})
	})
	return sr
}

// Sort orders the entries by block, the order Capture returns. A cache
// holds a block at most once, so the order is unique.
func (sr *SetRecord) Sort() {
	slices.SortFunc(sr.Entries, func(a, b Entry) int { return cmp.Compare(a.Block, b.Block) })
}

// CanReconstruct reports whether the target geometry is exactly
// reconstructible from this record: same block size, no more sets, and no
// higher associativity than the captured configuration (the LRU
// set-refinement property).
func (sr *SetRecord) CanReconstruct(target cache.Config) error {
	if err := target.Validate(); err != nil {
		return err
	}
	if target.LineBytes != sr.Cfg.LineBytes {
		return fmt.Errorf("csr: target line size %d differs from captured %d", target.LineBytes, sr.Cfg.LineBytes)
	}
	if target.Sets() > sr.Cfg.Sets() {
		return fmt.Errorf("csr: target has %d sets, captured only %d", target.Sets(), sr.Cfg.Sets())
	}
	if target.Assoc > sr.Cfg.Assoc {
		return fmt.Errorf("csr: target associativity %d exceeds captured %d", target.Assoc, sr.Cfg.Assoc)
	}
	return nil
}

// Reconstruct builds a warmed cache of the target configuration from the
// record. The target must satisfy CanReconstruct. Under LRU the
// reconstructed contents and recency are identical to having warmed the
// target configuration directly (verified by tests against direct
// warming). Dirty bits are a conservative superset: a smaller cache may
// have evicted (written back) and re-fetched a block clean, while the
// larger captured configuration still holds it dirty. This can only
// overstate writeback traffic, never change hits or misses.
func (sr *SetRecord) Reconstruct(target cache.Config) (*cache.Cache, error) {
	if err := sr.CanReconstruct(target); err != nil {
		return nil, err
	}
	c := cache.New(target)
	if err := sr.ReconstructInto(c, target); err != nil {
		return nil, err
	}
	return c, nil
}

// ReconstructInto is Reconstruct into a caller-owned cache: the cache is
// reset to the target configuration (reusing its line array) and the
// record's entries are installed — per-worker arenas use this to rebuild
// warmed caches with no per-point allocation.
func (sr *SetRecord) ReconstructInto(c *cache.Cache, target cache.Config) error {
	if err := sr.CanReconstruct(target); err != nil {
		return err
	}
	if err := c.ResetTo(target); err != nil {
		return err
	}
	// Install preserves the most recent Assoc blocks per target set; feed
	// entries in any order and let recency-aware installation sort it out.
	for _, e := range sr.Entries {
		c.Install(cache.Line{Block: e.Block, Valid: true, Dirty: e.Dirty, Last: e.Last})
	}
	return nil
}

// Restrict returns a copy of the record containing only blocks present in
// keep (block addresses at this record's granularity), in the record's
// order, so restricting then sorting equals sorting then restricting. Used
// to build the paper's "restricted live-state" ablation (§5, Figure 5),
// which drops microarchitectural state not touched by the correct path.
func (sr *SetRecord) Restrict(keep map[uint64]bool) *SetRecord {
	out := &SetRecord{Cfg: sr.Cfg}
	for _, e := range sr.Entries {
		if keep[e.Block] {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// Len returns the number of recorded blocks.
func (sr *SetRecord) Len() int { return len(sr.Entries) }

// StorageBytes returns the uncompressed storage cost: block address,
// timestamp and dirty flag per entry (the paper's "same storage as the tag
// array" property).
func (sr *SetRecord) StorageBytes() int { return len(sr.Entries) * 17 }

// MTR is a Memory Timestamp Record: last-access timestamp and dirtiness of
// every block ever touched, at a fixed block granularity. Storage grows
// with application footprint; reconstruction works for any geometry with
// line size equal to the record granularity. Nothing outside tests builds
// one: ablation_test.go keeps it as the baseline it compares CSR's storage
// against (NewMTR, Touch, StorageBytes).
type MTR struct {
	LineBytes int64
	blocks    map[uint64]Entry
	clock     uint64
}

// NewMTR returns an empty record at the given block granularity.
func NewMTR(lineBytes int64) *MTR {
	return &MTR{LineBytes: lineBytes, blocks: make(map[uint64]Entry)}
}

// Touch records an access to a byte address.
func (m *MTR) Touch(addr uint64, write bool) {
	m.clock++
	b := addr / uint64(m.LineBytes)
	e := m.blocks[b]
	e.Block = b
	e.Last = m.clock
	if write {
		e.Dirty = true
	}
	m.blocks[b] = e
}

// Len returns the number of distinct blocks recorded.
func (m *MTR) Len() int { return len(m.blocks) }

// StorageBytes returns the uncompressed storage cost.
func (m *MTR) StorageBytes() int { return len(m.blocks) * 17 }

// Reconstruct builds a warmed cache of the target configuration by ranking
// the recorded blocks per target set by recency. For a single-level cache
// observing the raw access stream this matches direct warming; for lower
// hierarchy levels (which observe a filtered stream) it is the
// approximation quantified by the CSR-vs-MTR ablation bench.
func (m *MTR) Reconstruct(target cache.Config) (*cache.Cache, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if target.LineBytes != m.LineBytes {
		return nil, fmt.Errorf("csr: MTR granularity %d differs from target line %d", m.LineBytes, target.LineBytes)
	}
	c := cache.New(target)
	// Deterministic order: sort blocks, then install (recency decides).
	blocks := make([]Entry, 0, len(m.blocks))
	for _, e := range m.blocks {
		blocks = append(blocks, e)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Block < blocks[j].Block })
	for _, e := range blocks {
		c.Install(cache.Line{Block: e.Block, Valid: true, Dirty: e.Dirty, Last: e.Last})
	}
	return c, nil
}
