package cache

// MSHRFile models a finite set of miss-status holding registers. Each
// outstanding miss occupies one register from its issue cycle until its
// fill completes; a second miss to the same block merges with the existing
// entry (a secondary miss). When all registers are busy, new misses must
// wait for the earliest completion.
//
// The model is time-stamped rather than event-driven: callers pass the
// current cycle, and entries whose completion time has passed are retired
// lazily.
type MSHRFile struct {
	cap    int
	blocks []uint64
	doneAt []uint64
	Stat   MSHRStats
}

// MSHRStats counts MSHR events.
type MSHRStats struct {
	Primary   uint64 // misses that allocated a register
	Secondary uint64 // misses merged into an existing register
	FullStall uint64 // cycles spent waiting for a free register
}

// NewMSHRFile returns an MSHR file with n registers. n must be positive.
func NewMSHRFile(n int) *MSHRFile {
	if n <= 0 {
		panic("cache: MSHR file needs at least one register")
	}
	return &MSHRFile{cap: n}
}

// Cap returns the number of registers.
func (m *MSHRFile) Cap() int { return m.cap }

// retire drops entries completed at or before now.
func (m *MSHRFile) retire(now uint64) {
	w := 0
	for i := range m.blocks {
		if m.doneAt[i] > now {
			m.blocks[w] = m.blocks[i]
			m.doneAt[w] = m.doneAt[i]
			w++
		}
	}
	m.blocks = m.blocks[:w]
	m.doneAt = m.doneAt[:w]
}

// Request models a miss on the given block issued at cycle now, whose fill
// would otherwise complete at doneAt. It returns the adjusted completion
// cycle accounting for merging and register pressure:
//
//   - secondary miss: the existing entry's completion time;
//   - full file: the miss waits for the earliest completion, shifting its
//     own completion time by the wait.
func (m *MSHRFile) Request(block uint64, now, doneAt uint64) uint64 {
	m.retire(now)
	for i := range m.blocks {
		if m.blocks[i] == block {
			m.Stat.Secondary++
			return m.doneAt[i]
		}
	}
	if len(m.blocks) >= m.cap {
		// Wait for the earliest completion.
		earliest := m.doneAt[0]
		ei := 0
		for i, d := range m.doneAt {
			if d < earliest {
				earliest, ei = d, i
			}
		}
		wait := earliest - now
		m.Stat.FullStall += wait
		doneAt += wait
		// The freed register is reused by this miss.
		m.blocks[ei] = block
		m.doneAt[ei] = doneAt
		m.Stat.Primary++
		return doneAt
	}
	m.blocks = append(m.blocks, block)
	m.doneAt = append(m.doneAt, doneAt)
	m.Stat.Primary++
	return doneAt
}

// Reset clears all entries and statistics.
func (m *MSHRFile) Reset() {
	m.blocks = m.blocks[:0]
	m.doneAt = m.doneAt[:0]
	m.Stat = MSHRStats{}
}
