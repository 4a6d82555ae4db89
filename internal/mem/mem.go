// Package mem provides the sparse simulated data memory shared by the
// functional and detailed simulators, plus copy-on-write overlays used for
// speculative execution and live-state capture.
//
// Memory is word-addressed internally: all architectural accesses are
// 8-byte aligned 64-bit words, which is all the synthetic ISA issues. Pages
// are allocated lazily; a read of a never-written word returns zero, exactly
// like zero-fill-on-demand in a real OS. The Reader/Writer interfaces let
// live-points substitute a sparse captured image for the full benchmark
// memory, with explicit visibility of "unavailable" words so the detailed
// simulator can implement the paper's wrong-path approximation.
package mem

// PageWords is the number of 64-bit words per page (4 KB pages).
const PageWords = 512

// PageBytes is the page size in bytes.
const PageBytes = PageWords * 8

// WordAlign masks a byte address down to its containing word.
func WordAlign(addr uint64) uint64 { return addr &^ 7 }

// PageOf returns the page number containing the byte address.
func PageOf(addr uint64) uint64 { return addr / PageBytes }

// Reader is the read side of a simulated memory. ReadWord reports ok=false
// when the word is not available in this image (possible only for sparse
// live-state images; full memories always report ok=true).
type Reader interface {
	ReadWord(addr uint64) (val uint64, ok bool)
}

// Writer is the write side of a simulated memory.
type Writer interface {
	WriteWord(addr uint64, val uint64)
}

// Memory is a full sparse memory: every address is readable (zero-filled).
type Memory struct {
	pages map[uint64]*[PageWords]uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageWords]uint64)}
}

// ReadWord returns the word at the (word-aligned) byte address. Reads of
// unmapped pages return zero. ok is always true.
func (m *Memory) ReadWord(addr uint64) (uint64, bool) {
	p := m.pages[PageOf(addr)]
	if p == nil {
		return 0, true
	}
	return p[(addr/8)%PageWords], true
}

// WriteWord stores the word at the (word-aligned) byte address, allocating
// the page on demand.
func (m *Memory) WriteWord(addr uint64, val uint64) {
	pn := PageOf(addr)
	p := m.pages[pn]
	if p == nil {
		p = new([PageWords]uint64)
		m.pages[pn] = p
	}
	p[(addr/8)%PageWords] = val
}

// FootprintBytes returns the allocated footprint in bytes.
func (m *Memory) FootprintBytes() int64 { return int64(len(m.pages)) * PageBytes }

// Clone returns a deep copy of the memory. Used to snapshot architectural
// state for golden runs and checkpoint verification.
func (m *Memory) Clone() *Memory {
	c := New()
	for pn, p := range m.pages {
		cp := *p
		c.pages[pn] = &cp
	}
	return c
}

// Overlay is a copy-on-write view over a base Reader. Writes land in the
// overlay; reads prefer the overlay and fall back to the base. The detailed
// simulator runs every window on an overlay so that speculative and
// committed window execution never perturbs the base image, and the
// live-point creator uses an overlay to observe the set of words a window
// reads before writing (the live-state).
type Overlay struct {
	base   Reader
	writes map[uint64]uint64

	// observer, when non-nil, is invoked for the first read of each base
	// word (before any overlay write to it), with the value obtained and
	// whether the base had it. Live-state capture hooks in here.
	observer func(addr, val uint64, ok bool)
	seen     map[uint64]struct{}
}

// NewOverlay returns a copy-on-write view over base.
func NewOverlay(base Reader) *Overlay {
	return &Overlay{base: base, writes: make(map[uint64]uint64)}
}

// Observe registers fn to be called once per distinct word address on the
// first base read of that word. Passing nil disables observation.
func (o *Overlay) Observe(fn func(addr, val uint64, ok bool)) {
	o.observer = fn
	if fn != nil && o.seen == nil {
		o.seen = make(map[uint64]struct{})
	}
}

// ReadWord reads through the overlay. ok reflects the base's availability
// when the word has not been written locally.
func (o *Overlay) ReadWord(addr uint64) (uint64, bool) {
	a := WordAlign(addr)
	if v, hit := o.writes[a]; hit {
		return v, true
	}
	v, ok := o.base.ReadWord(a)
	if o.observer != nil {
		if _, dup := o.seen[a]; !dup {
			o.seen[a] = struct{}{}
			o.observer(a, v, ok)
		}
	}
	return v, ok
}

// WriteWord writes into the overlay only.
func (o *Overlay) WriteWord(addr uint64, val uint64) {
	o.writes[WordAlign(addr)] = val
}

// Dirty returns the number of locally written words.
func (o *Overlay) Dirty() int { return len(o.writes) }

// Reset discards all overlay writes and observation state, keeping the base.
func (o *Overlay) Reset() {
	clear(o.writes)
	if o.seen != nil {
		clear(o.seen)
	}
}

// Rebind resets the overlay and points it at a new base. Reusing one
// overlay (and its write/seen buckets) across many simulation windows
// keeps per-window setup allocation-free.
func (o *Overlay) Rebind(base Reader) {
	o.Reset()
	o.base = base
}

// Image is a sparse read-only memory image: exactly the words captured in a
// live-point. Reads of uncaptured words report ok=false; the detailed
// simulator substitutes zero and counts the event (the paper's
// "unavailable memory value" case).
type Image struct {
	words map[uint64]uint64
}

// NewImage returns an image over the given word map. The map is retained,
// not copied. Only tests call it: functional_test.go, in another package,
// runs Exec against a hand-built image, which is why it is exported.
func NewImage(words map[uint64]uint64) *Image {
	if words == nil {
		words = make(map[uint64]uint64)
	}
	return &Image{words: words}
}

// ReadWord returns the captured word, or ok=false when absent.
func (im *Image) ReadWord(addr uint64) (uint64, bool) {
	v, ok := im.words[WordAlign(addr)]
	return v, ok
}

// Len returns the number of captured words.
func (im *Image) Len() int { return len(im.words) }

// Words exposes the underlying map (read-only by convention); used by the
// live-point encoder.
func (im *Image) Words() map[uint64]uint64 { return im.words }
