// Package lpstore is the live-point library container: the one module that
// knows what a library file looks like. Every library the repository writes
// or runs is the sharded v2 format, and Open reads nothing else: a library
// in any other container is rebuilt by lpgen, never migrated. A v2 library
// is N independently-gzipped shards of DER-encoded points followed by an
// uncompressed footer index:
//
//	offset 0   magic "LPLIBv2\n"
//	           shard 0 gzip stream | shard 1 gzip stream | ...
//	           index (ASN.1 DER, uncompressed)
//	EOF-16     index length (uint64 LE) | trailer magic "LPIDXv2\n"
//
// The index records, per shard, its file offset and compressed/uncompressed
// lengths; per point, its shard and (offset, length) within the shard's
// uncompressed stream; and the library read order as a permutation of
// point ids. That buys:
//
//   - O(1) location of any point, and access that inflates a shard once
//     per store, into a table every reader of the store shares (cache.go);
//   - index-only shuffling: Shuffle permutes the footer and never touches
//     point data;
//   - reading ahead: shards decompress independently, so a source inflates
//     the next shard its walk enters while the points of the current one
//     are simulated;
//   - remote serving: internal/lpserve streams stored shard bytes to
//     clients verbatim, with no server-side recompression.
//
// Within a shard the points' spans tile the uncompressed stream exactly, in
// storage order; Open refuses an index that says otherwise, so a damaged
// span cannot select the wrong bytes of an intact shard.
//
// The store installs itself as livepoint's file opener (register.go), so
// livepoint.RunFile and OpenSource run v2 libraries.
package lpstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"

	"livepoints/internal/inflate"
	"livepoints/internal/livepoint"
)

const (
	fileMagic    = "LPLIBv2\n" // first 8 bytes of a v2 library
	trailerMagic = "LPIDXv2\n" // last 8 bytes of a v2 library
	idxMagic     = "livepoint-library-v2"

	// DefaultShardPoints is the default number of points per shard: small
	// enough that the first shard a run waits for, before the read-ahead
	// takes over, is a small part of a few hundred points, large enough
	// that gzip retains cross-point redundancy.
	DefaultShardPoints = 64

	trailerLen     = 16 // index length (8) + trailer magic (8)
	shardRecordLen = 28 // dataOff u64 | compLen u64 | uncompLen u64 | points u32
	pointRecordLen = 16 // shard u32 | off u64 | len u32

	// maxInflate bounds what a DEFLATE stream can expand to: its longest
	// match, 258 bytes, costs at least two bits.
	maxInflate = 1032
)

// shardInfo locates one shard's compressed bytes and describes its
// contents.
type shardInfo struct {
	dataOff   int64 // absolute file offset of the gzip stream
	compLen   int64
	uncompLen int64
	points    int
}

// pointInfo locates one point inside its shard's uncompressed stream.
type pointInfo struct {
	shard int
	off   int64
	len   int
}

// Span is a point's (offset, length) within its shard's uncompressed
// stream.
type Span struct {
	Off int64
	Len int
}

// Info summarizes a written v2 library.
type Info struct {
	Points            int
	Shards            int
	CompressedBytes   int64 // whole file, index included
	UncompressedBytes int64 // sum of encoded point sizes
}

// Stat describes an open store (the serving /v1/stat payload).
type Stat struct {
	Benchmark         string `json:"benchmark"`
	Points            int    `json:"points"`
	UnitLen           uint64 `json:"unitLen"`
	WarmLen           uint64 `json:"warmLen"`
	Shuffled          bool   `json:"shuffled"`
	Shards            int    `json:"shards"`
	CompressedBytes   int64  `json:"compressedBytes"`
	UncompressedBytes int64  `json:"uncompressedBytes"`
}

// Store is an open sharded live-point library. It is safe for concurrent
// readers: file access uses positioned reads, shared metadata is
// immutable after Open, and the table of inflated shards behind every
// reader has its own lock.
type Store struct {
	path string
	f    *os.File

	meta         livepoint.Meta
	uncompressed int64
	shards       []shardInfo
	points       []pointInfo // indexed by physical point id (storage order)
	order        []uint32    // read position -> physical point id

	lastRead []int // per shard: the read position of its last point

	shardPosOnce sync.Once
	shardPos     [][]int // per shard: its points' read positions, in storage order

	shared *shardTable // every reader's inflated shards (cache.go)
}

// Open opens a v2 library file. Any other file is refused with the lpgen
// command that rebuilds it.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

func openFile(f *os.File, path string) (*Store, error) {
	var magic [len(fileMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("lpstore: %s: reading magic: %w", path, err)
	}
	if string(magic[:]) != fileMagic {
		found := fmt.Sprintf("a file with magic %q", magic)
		if magic[0] == 0x1f && magic[1] == 0x8b {
			found = "a v1 (sequential gzip) library"
		}
		return nil, fmt.Errorf("lpstore: %s is %s, not a v2 library; rebuild it with: lpgen -bench <benchmark> -o %s", path, found, path)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(fileMagic))+trailerLen {
		return nil, fmt.Errorf("lpstore: %s: file too short for a v2 library", path)
	}
	var trailer [trailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("lpstore: %s: reading trailer: %w", path, err)
	}
	if string(trailer[8:]) != trailerMagic {
		return nil, fmt.Errorf("lpstore: %s: bad trailer magic %q (truncated or corrupt library)", path, trailer[8:])
	}
	idxLen := int64(binary.LittleEndian.Uint64(trailer[:8]))
	idxOff := size - trailerLen - idxLen
	if idxLen <= 0 || idxOff < int64(len(fileMagic)) {
		return nil, fmt.Errorf("lpstore: %s: implausible index length %d", path, idxLen)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("lpstore: %s: reading index: %w", path, err)
	}
	st := &Store{path: path, f: f}
	if err := st.decodeIndex(idx, idxOff); err != nil {
		return nil, fmt.Errorf("lpstore: %s: %w", path, err)
	}
	st.lastRead = make([]int, len(st.shards))
	for i, phys := range st.order {
		st.lastRead[st.points[phys].shard] = i
	}
	st.shared = newShardTable(len(st.shards))
	return st, nil
}

// Close releases the store's file handle and empties its table of inflated
// shards. Slices Blobs returned stay valid.
func (st *Store) Close() error {
	st.shared.close()
	return st.f.Close()
}

// Path returns the file path the store was opened from.
func (st *Store) Path() string { return st.path }

// Meta returns the library metadata.
func (st *Store) Meta() livepoint.Meta { return st.meta }

// Count returns the number of points.
func (st *Store) Count() int { return st.meta.Count }

// NumShards returns the number of shards.
func (st *Store) NumShards() int { return len(st.shards) }

// UncompressedBytes returns the summed encoded point sizes.
func (st *Store) UncompressedBytes() int64 { return st.uncompressed }

// CompressedBytes returns the summed compressed shard sizes.
func (st *Store) CompressedBytes() int64 {
	var n int64
	for _, sh := range st.shards {
		n += sh.compLen
	}
	return n
}

// Stat summarizes the store.
func (st *Store) Stat() Stat {
	return Stat{
		Benchmark:         st.meta.Benchmark,
		Points:            st.meta.Count,
		UnitLen:           st.meta.UnitLen,
		WarmLen:           st.meta.WarmLen,
		Shuffled:          st.meta.Shuffled,
		Shards:            len(st.shards),
		CompressedBytes:   st.CompressedBytes(),
		UncompressedBytes: st.uncompressed,
	}
}

// Order returns a copy of the read-order permutation: Order()[i] is the
// physical id of the i-th point a sequential reader sees.
func (st *Store) Order() []int {
	out := make([]int, len(st.order))
	for i, p := range st.order {
		out[i] = int(p)
	}
	return out
}

// ShardStat returns one shard's point count and compressed/uncompressed
// byte sizes.
func (st *Store) ShardStat(s int) (points int, compLen, uncompLen int64, err error) {
	if s < 0 || s >= len(st.shards) {
		return 0, 0, 0, fmt.Errorf("lpstore: shard %d out of range [0,%d)", s, len(st.shards))
	}
	sh := st.shards[s]
	return sh.points, sh.compLen, sh.uncompLen, nil
}

// ShardRaw returns a reader over one shard's stored gzip bytes and their
// length — the serving layer streams these verbatim (no recompression).
func (st *Store) ShardRaw(s int) (io.Reader, int64, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, 0, fmt.Errorf("lpstore: shard %d out of range [0,%d)", s, len(st.shards))
	}
	sh := st.shards[s]
	return io.NewSectionReader(st.f, sh.dataOff, sh.compLen), sh.compLen, nil
}

// DecompressShard inflates one shard into memory and returns its
// uncompressed bytes (every point blob, concatenated in storage order).
func (st *Store) DecompressShard(s int) ([]byte, error) {
	return st.inflateShard(s, nil)
}

// inflateShard is DecompressShard into buf's storage when the shard fits
// it. The stream must inflate to exactly its indexed length, then end
// with a trailer whose CRC-32 and length match: uncompLen bytes arriving
// intact does not by itself prove the stream checksum matched.
func (st *Store) inflateShard(s int, buf []byte) ([]byte, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, fmt.Errorf("lpstore: shard %d out of range [0,%d)", s, len(st.shards))
	}
	sh := st.shards[s]
	n := sh.uncompLen
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	d := inflate.TakeAt(st.f, sh.dataOff, sh.compLen)
	defer d.Release()
	data, err := d.Fill(buf[:0:n])
	switch {
	case err == nil: // data is full, and the stream goes on
		past, err := d.Discard(data)
		if err != nil {
			return nil, fmt.Errorf("lpstore: shard %d: stream trailer: %w", s, err)
		}
		return nil, fmt.Errorf("lpstore: shard %d: inflates %d bytes past its indexed length %d", s, past, n)
	case err != io.EOF:
		return nil, fmt.Errorf("lpstore: shard %d: inflating: %w", s, err)
	case int64(len(data)) < n:
		return nil, fmt.Errorf("lpstore: shard %d: inflates %d bytes, short of its indexed length %d", s, len(data), n)
	}
	return buf[:n], nil
}

// ShardReadOrder returns shard s's points as (offset, length) spans within
// the shard's uncompressed stream, in the library's read order restricted
// to that shard.
func (st *Store) ShardReadOrder(s int) ([]Span, error) {
	pos, err := st.ShardReadPositions(s)
	if err != nil {
		return nil, err
	}
	slices.Sort(pos)
	spans := make([]Span, len(pos))
	for i, at := range pos {
		p := st.points[st.order[at]]
		spans[i] = Span{Off: p.off, Len: p.len}
	}
	return spans, nil
}

// ShardReadPositions returns the read-order positions of shard s's points
// in storage order, the order a shard's stream holds them, in a fresh
// slice. A cluster coordinator maps a shard lease's CPIs, which arrive in
// that order, onto library positions through it. On a library written in
// read order (Write, Create) the positions ascend; on an index-reshuffled
// one they are scattered.
func (st *Store) ShardReadPositions(s int) ([]int, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, fmt.Errorf("lpstore: shard %d out of range [0,%d)", s, len(st.shards))
	}
	st.shardPosOnce.Do(func() { // invert the read order, once
		readPos := make([]int, len(st.order))
		for i, phys := range st.order {
			readPos[phys] = i
		}
		st.shardPos = make([][]int, len(st.shards))
		for i, sh := range st.shards {
			st.shardPos[i] = make([]int, 0, sh.points)
		}
		for phys, p := range st.points {
			st.shardPos[p.shard] = append(st.shardPos[p.shard], readPos[phys])
		}
	})
	return slices.Clone(st.shardPos[s]), nil
}

// PointBlob returns the encoded live-point at read-order position i:
// Blobs(i, 1), with its sharing rule.
func (st *Store) PointBlob(i int) ([]byte, error) {
	blobs, err := st.Blobs(i, 1)
	if err != nil {
		return nil, err
	}
	return blobs[0], nil
}

// Blobs returns the encoded points at read-order positions [start,
// start+count). Each touched shard comes from the store's table of
// inflated, verified shards (cache.go) and is held for the call, so a
// shard is inflated once per store rather than once per call, and at most
// once within a call whatever the table evicts meanwhile. The slices are
// shared with every other reader of the store: they must not be written.
// They stay valid after the table evicts their shard and after Close.
func (st *Store) Blobs(start, count int) ([][]byte, error) {
	if start < 0 || count < 0 || start > len(st.order)-count {
		return nil, fmt.Errorf("lpstore: range [%d,%d) out of [0,%d)", start, start+count, len(st.order))
	}
	held := make(map[int]*tableShard)
	defer func() {
		for _, e := range held {
			st.shared.release(e, false)
		}
	}()
	out := make([][]byte, count)
	for i := range out {
		p := st.points[st.order[start+i]]
		e, ok := held[p.shard]
		if !ok {
			var err error
			if e, err = st.shared.acquire(st, p.shard, true); err != nil {
				return nil, err
			}
			held[p.shard] = e
		}
		end := p.off + int64(p.len)
		out[i] = e.data[p.off:end:end]
	}
	return out, nil
}

// Source returns a sequential livepoint.Source over the whole store in
// read order. Closing it does not close the store.
func (st *Store) Source() livepoint.Source {
	return &storeSource{st: st}
}

// storeSource walks the store's points in read order, holding the shard of
// its current blob in the store's table, and the next shard it will enter,
// which it reads ahead: on entering a shard it first starts inflating that
// next one, then waits for the one it entered, so that a shard inflates
// while the points of the one before it are simulated. Moving on to
// another shard releases the current one, as done once the walk has passed
// the shard's last read position: a creation-order walk holds two shards
// at a time, and an index-reshuffled one inflates each shard once while
// the table's budget lasts.
type storeSource struct {
	st       *Store
	pos      int
	cur      *tableShard // the shard of the last blob handed out
	ahead    *tableShard // the next shard the walk enters, inflated or inflating
	ownStore bool
}

func (s *storeSource) Meta() livepoint.Meta { return s.st.meta }

func (s *storeSource) NextBlob() ([]byte, error) {
	// The previous blob was borrowed until this call (DESIGN §3.8 rule 1).
	st := s.st
	if s.pos >= len(st.order) {
		s.letGo()
		return nil, io.EOF
	}
	p := st.points[st.order[s.pos]]
	if s.cur != nil && s.cur.shard != p.shard {
		st.shared.release(s.cur, st.lastRead[s.cur.shard] < s.pos)
		s.cur = nil
	}
	if s.cur == nil {
		if err := s.enter(p.shard); err != nil {
			return nil, err
		}
	}
	s.pos++
	return s.cur.data[p.off : p.off+int64(p.len)], nil
}

// enter makes shard sh, the shard of the walk's next blob, current. A
// shard that fails to inflate fails the NextBlob that enters it, never one
// before, and every NextBlob after it tries it again.
func (s *storeSource) enter(sh int) error {
	t := s.st.shared
	e := s.ahead
	if e == nil { // the walk's first shard, or one that failed
		e = t.hold(s.st, sh, false)
	}
	s.ahead = nil
	for _, phys := range s.st.order[s.pos:] { // the next shard the walk enters
		if next := s.st.points[phys].shard; next != sh {
			s.ahead = t.hold(s.st, next, false)
			break
		}
	}
	if err := t.wait(e); err != nil {
		s.letGo()
		return err
	}
	s.cur = e
	return nil
}

// letGo releases the shards the walk holds, as done, once the one it reads
// ahead is no longer inflating.
func (s *storeSource) letGo() {
	t := s.st.shared
	if s.cur != nil {
		t.release(s.cur, true)
		s.cur = nil
	}
	if s.ahead != nil {
		if t.wait(s.ahead) == nil {
			t.release(s.ahead, true)
		}
		s.ahead = nil
	}
}

func (s *storeSource) Close() error {
	s.letGo()
	if s.ownStore {
		return s.st.Close()
	}
	return nil
}

// Shuffle rewrites a v2 library's read order in place, deterministically
// from seed: only the footer index is rewritten; shard data is untouched.
func Shuffle(path string, seed int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := openFile(f, path)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(st.order), func(i, j int) {
		st.order[i], st.order[j] = st.order[j], st.order[i]
	})
	st.meta.Shuffled = true

	idx := st.encodeIndex()
	idxLen, err := indexLenAt(f, fi.Size())
	if err != nil {
		return err
	}
	idxOff := fi.Size() - trailerLen - idxLen
	if err := f.Truncate(idxOff); err != nil {
		return err
	}
	if _, err := f.WriteAt(appendTrailer(idx), idxOff); err != nil {
		return err
	}
	return f.Sync()
}
