package cache

// StoreBuffer models a finite store buffer between commit and the L1 data
// cache. Stores enter at commit and drain to the cache in FIFO order at a
// fixed drain interval; when the buffer is full, commit must stall until
// the head drains. Loads snoop the buffer for forwarding (the detailed
// core performs the address match; the buffer exposes Contains).
type StoreBuffer struct {
	cap       int
	drainLat  int // cycles between successive drains
	addrs     []uint64
	readyAt   []uint64 // cycle at which each entry drains
	lastDrain uint64
	Stat      StoreBufStats
}

// StoreBufStats counts store-buffer events.
type StoreBufStats struct {
	Stores     uint64
	FullStalls uint64 // cycles of commit stall due to a full buffer
}

// NewStoreBuffer returns a buffer with n entries draining one store per
// drainLat cycles.
func NewStoreBuffer(n, drainLat int) *StoreBuffer {
	if n <= 0 {
		panic("cache: store buffer needs at least one entry")
	}
	if drainLat < 1 {
		drainLat = 1
	}
	return &StoreBuffer{cap: n, drainLat: drainLat}
}

// Cap returns the buffer capacity.
func (sb *StoreBuffer) Cap() int { return sb.cap }

// drain retires entries whose drain time has passed, invoking fill for each
// drained store address.
func (sb *StoreBuffer) drain(now uint64, fill func(addr uint64)) {
	i := 0
	for ; i < len(sb.addrs) && sb.readyAt[i] <= now; i++ {
		if fill != nil {
			fill(sb.addrs[i])
		}
	}
	if i > 0 {
		// Slide the survivors down rather than reslicing past the drained
		// ones: a resliced buffer loses capacity and reallocates for ever.
		sb.addrs = sb.addrs[:copy(sb.addrs, sb.addrs[i:])]
		sb.readyAt = sb.readyAt[:copy(sb.readyAt, sb.readyAt[i:])]
	}
}

// Push commits a store at cycle now, returning the number of stall cycles
// commit incurs (zero unless the buffer is full). fill is called for each
// store that drains to the cache as a side effect.
func (sb *StoreBuffer) Push(addr uint64, now uint64, fill func(addr uint64)) (stall uint64) {
	sb.Stat.Stores++
	sb.drain(now, fill)
	if len(sb.addrs) >= sb.cap {
		// Stall until the head drains.
		wait := sb.readyAt[0] - now
		sb.Stat.FullStalls += wait
		now += wait
		stall = wait
		sb.drain(now, fill)
	}
	drainAt := now + uint64(sb.drainLat)
	if sb.lastDrain+uint64(sb.drainLat) > drainAt {
		drainAt = sb.lastDrain + uint64(sb.drainLat)
	}
	sb.lastDrain = drainAt
	sb.addrs = append(sb.addrs, addr)
	sb.readyAt = append(sb.readyAt, drainAt)
	return stall
}

// Contains reports whether a word-aligned address has an un-drained store,
// for store-to-load forwarding. Matching is by 8-byte word.
func (sb *StoreBuffer) Contains(addr uint64, now uint64, fill func(addr uint64)) bool {
	sb.drain(now, fill)
	for i := len(sb.addrs) - 1; i >= 0; i-- {
		if sb.addrs[i] == addr {
			return true
		}
	}
	return false
}

// Len returns the current occupancy (after draining at cycle now).
func (sb *StoreBuffer) Len(now uint64) int {
	sb.drain(now, nil)
	return len(sb.addrs)
}

// Reset clears the buffer and statistics.
func (sb *StoreBuffer) Reset() {
	sb.addrs = sb.addrs[:0]
	sb.readyAt = sb.readyAt[:0]
	sb.lastDrain = 0
	sb.Stat = StoreBufStats{}
}
