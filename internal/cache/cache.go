// Package cache models the memory hierarchy: set-associative LRU caches and
// TLBs with externally visible tag/recency state, miss-status holding
// registers, a store buffer, and bus (interconnect) occupancy — the
// structures the paper's functional warming must keep warm and whose state
// live-points must checkpoint.
//
// A cache line records the full block address rather than a geometry-local
// tag, so the same state can be re-indexed into a different geometry — the
// property the Cache Set Record (internal/csr) relies on for reconstructing
// smaller or less-associative configurations.
package cache

import "fmt"

// Config describes one cache or TLB.
type Config struct {
	Name      string
	SizeBytes int64 // total capacity
	Assoc     int   // ways
	LineBytes int64 // block size (page size for TLBs)
	HitLat    int   // access latency in cycles on a hit
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int64 { return c.SizeBytes / (c.LineBytes * int64(c.Assoc)) }

// Lines returns the total number of lines.
func (c Config) Lines() int64 { return c.SizeBytes / c.LineBytes }

// maxLines bounds a cache's line count: its arrays are allocated per line,
// and a size that arrives as a flag or a run spec must be refused before
// that allocation, not by it. 16M lines is a 2 GB cache of 128-byte lines.
const maxLines = 1 << 24

// Validate checks the geometry is usable (power-of-two sets and line size,
// at most maxLines lines).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.Lines() > maxLines {
		return fmt.Errorf("cache %s: size %d is %d lines, more than %d", c.Name, c.SizeBytes, c.Lines(), maxLines)
	}
	if c.SizeBytes%(c.LineBytes*int64(c.Assoc)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	if !isPow2(c.LineBytes) {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if s := c.Sets(); !isPow2(s) {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

// Line is one cache line's externally visible state. Block is the full
// block address (byte address >> log2(LineBytes)); Last is the value of the
// cache's access clock at the line's most recent touch (the LRU key and the
// CSR timestamp).
type Line struct {
	Block uint64
	Valid bool
	Dirty bool
	Last  uint64
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// Cache is a set-associative LRU cache (or TLB).
type Cache struct {
	cfg     Config
	lines   []Line // sets*assoc, set-major
	setMask uint64
	lgLine  uint
	assoc   int
	clock   uint64 // monotonic access counter (LRU + CSR timestamps)
	Stat    Stats
}

// New builds an empty cache; the config must validate.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:     cfg,
		lines:   make([]Line, cfg.Sets()*int64(cfg.Assoc)),
		setMask: uint64(cfg.Sets() - 1),
		assoc:   cfg.Assoc,
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lgLine++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// BlockOf returns the block address containing the byte address.
func (c *Cache) BlockOf(addr uint64) uint64 { return addr >> c.lgLine }

// setOf returns the set index for a block address.
func (c *Cache) setOf(block uint64) uint64 { return block & c.setMask }

// AccessResult describes the effects of one access.
type AccessResult struct {
	Hit bool
	// Victim describes a dirty line evicted by the fill on a miss.
	VictimDirty bool
	VictimBlock uint64
}

// Access performs a read or write access with fill-on-miss and LRU
// replacement, returning hit/victim information. This single path is used
// both by functional warming and by the detailed hierarchy (which layers
// latency, MSHR and bus modelling on top).
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	c.Stat.Accesses++
	block := c.BlockOf(addr)
	base := int(c.setOf(block)) * c.assoc
	set := c.lines[base : base+c.assoc]

	for i := range set {
		if set[i].Valid && set[i].Block == block {
			set[i].Last = c.clock
			if write {
				set[i].Dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.Stat.Misses++

	// Fill: choose invalid way, else LRU.
	vi := 0
	for i := range set {
		if !set[i].Valid {
			vi = i
			goto fill
		}
		if set[i].Last < set[vi].Last {
			vi = i
		}
	}
fill:
	res := AccessResult{}
	if set[vi].Valid && set[vi].Dirty {
		c.Stat.Writebacks++
		res.VictimDirty = true
		res.VictimBlock = set[vi].Block
	}
	set[vi] = Line{Block: block, Valid: true, Dirty: write, Last: c.clock}
	return res
}

// Probe reports whether the address currently hits, without updating any
// state. Used by wrong-path latency estimation and by tests.
func (c *Cache) Probe(addr uint64) bool {
	block := c.BlockOf(addr)
	base := int(c.setOf(block)) * c.assoc
	set := c.lines[base : base+c.assoc]
	for i := range set {
		if set[i].Valid && set[i].Block == block {
			return true
		}
	}
	return false
}

// Clock returns the cache's monotonic access counter.
func (c *Cache) Clock() uint64 { return c.clock }

// VisitLines calls fn for every valid line. Iteration order is set-major,
// way order within a set; deterministic.
func (c *Cache) VisitLines(fn func(Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(c.lines[i])
		}
	}
}

// Install places a line into the cache, evicting LRU if the set is full.
// It is used when reconstructing cache state from a checkpoint; Last values
// must come from a single consistent clock domain. The cache's clock is
// bumped to stay ahead of all installed timestamps.
func (c *Cache) Install(l Line) {
	base := int(c.setOf(l.Block)) * c.assoc
	set := c.lines[base : base+c.assoc]
	vi := 0
	for i := range set {
		if set[i].Valid && set[i].Block == l.Block {
			set[i] = l
			if l.Last > c.clock {
				c.clock = l.Last
			}
			return
		}
		if !set[i].Valid {
			vi = i
			goto place
		}
		if set[i].Last < set[vi].Last {
			vi = i
		}
	}
	// Set full: only replace if the incoming line is more recent than LRU.
	if set[vi].Last >= l.Last {
		return
	}
place:
	set[vi] = l
	if l.Last > c.clock {
		c.clock = l.Last
	}
}

// FillInvalid populates every invalid way with a synthetic garbage line:
// an unreachable block address (top bit set) with a pseudo-random recency
// drawn from the cache's current clock range. This materializes the
// paper's "uninitialized (effectively random)" state for restricted
// live-state simulation: garbage tags never hit, but they occupy ways and
// participate in LRU like the dropped state did.
func (c *Cache) FillInvalid(seed uint64) {
	clockRange := c.clock
	if clockRange == 0 {
		clockRange = 1
	}
	h := seed | 1
	for i := range c.lines {
		if c.lines[i].Valid {
			continue
		}
		h = h*6364136223846793005 + 1442695040888963407
		c.lines[i] = Line{
			Block: 1<<63 | h>>8, // outside any simulated address space
			Valid: true,
			Last:  h % clockRange,
		}
	}
}

// Reset invalidates all lines and zeroes statistics and the clock.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = Line{}
	}
	c.clock = 0
	c.Stat = Stats{}
}

// ResetTo reconfigures the cache to cfg and resets it cold, reusing the
// line array whenever its capacity suffices. A cache reset to a
// configuration is indistinguishable from one freshly built with New, so
// per-point reconstruction can recycle one arena cache per structure
// instead of allocating.
func (c *Cache) ResetTo(cfg Config) error {
	if cfg != c.cfg {
		if err := cfg.Validate(); err != nil {
			return err
		}
		n := cfg.Sets() * int64(cfg.Assoc)
		if int64(cap(c.lines)) >= n {
			c.lines = c.lines[:n]
		} else {
			c.lines = make([]Line, n)
		}
		c.cfg = cfg
		c.setMask = uint64(cfg.Sets() - 1)
		c.assoc = cfg.Assoc
		c.lgLine = 0
		for l := cfg.LineBytes; l > 1; l >>= 1 {
			c.lgLine++
		}
	}
	c.Reset()
	return nil
}

// Clone returns a deep copy of the cache (state and statistics).
func (c *Cache) Clone() *Cache {
	n := New(c.cfg)
	copy(n.lines, c.lines)
	n.clock = c.clock
	n.Stat = c.Stat
	return n
}

// Equal reports whether two caches have identical visible state (geometry,
// valid lines, dirtiness; recency compared exactly). Used by tests.
func (c *Cache) Equal(o *Cache) bool {
	if c.cfg != o.cfg || len(c.lines) != len(o.lines) {
		return false
	}
	for i := range c.lines {
		if c.lines[i] != o.lines[i] {
			return false
		}
	}
	return true
}
