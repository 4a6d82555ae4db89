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
//   - O(1) location of any point, and random access that inflates a shard
//     once per store, into a cache every random-access reader shares
//     (cache.go);
//   - index-only shuffling: Shuffle permutes the footer and never touches
//     point data;
//   - concurrent reads: shards decompress independently, so parallel
//     runners scale their load bandwidth with worker count;
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

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
)

const (
	fileMagic    = "LPLIBv2\n" // first 8 bytes of a v2 library
	trailerMagic = "LPIDXv2\n" // last 8 bytes of a v2 library
	idxMagic     = "livepoint-library-v2"

	// DefaultShardPoints is the default number of points per shard: small
	// enough that a 4-worker run on a few hundred points still sees many
	// shards, large enough that gzip retains cross-point redundancy.
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
	Off int64 `json:"off"`
	Len int   `json:"len"`
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
// immutable after Open, and the inflated-shard cache behind Blobs has its
// own lock.
type Store struct {
	path string
	f    *os.File

	meta         livepoint.Meta
	uncompressed int64
	shards       []shardInfo
	points       []pointInfo // indexed by physical point id (storage order)
	order        []uint32    // read position -> physical point id

	shardOrderOnce sync.Once
	shardOrder     [][]uint32 // per shard: physical ids in read order
	lastRead       []int      // per shard: the read position of its last point

	shared sharedShards // Blobs' inflated shards (cache.go)
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
	st.shared.budget = shardCacheBudget
	if err := st.decodeIndex(idx, idxOff); err != nil {
		return nil, fmt.Errorf("lpstore: %s: %w", path, err)
	}
	return st, nil
}

// Close releases the store's file handle and drops its inflated-shard
// cache. Slices Blobs returned stay valid.
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
// it.
func (st *Store) inflateShard(s int, buf []byte) ([]byte, error) {
	raw, _, err := st.ShardRaw(s)
	if err != nil {
		return nil, err
	}
	gz, err := livepoint.AcquireGzipReader(raw)
	if err != nil {
		return nil, fmt.Errorf("lpstore: shard %d: %w", s, err)
	}
	defer livepoint.ReleaseGzipReader(gz)
	n := st.shards[s].uncompLen
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	data := buf[:n]
	if _, err := io.ReadFull(gz, data); err != nil {
		return nil, fmt.Errorf("lpstore: shard %d: inflating: %w", s, err)
	}
	// Read to EOF so the gzip CRC trailer is actually verified: uncompLen
	// bytes arriving intact does not prove the stream checksum matched.
	if n, err := io.Copy(io.Discard, gz); err != nil {
		return nil, fmt.Errorf("lpstore: shard %d: stream trailer: %w", s, err)
	} else if n != 0 {
		return nil, fmt.Errorf("lpstore: shard %d: inflates %d bytes past its indexed length %d", s, n, len(data))
	}
	return data, nil
}

// longestShard returns the largest uncompressed shard length.
func (st *Store) longestShard() int64 {
	var longest int64
	for _, sh := range st.shards {
		longest = max(longest, sh.uncompLen)
	}
	return longest
}

// shardBuf returns a buffer that holds any shard of the store: the free
// list's last when that is long enough, else a new one. Release it with
// releaseShardBuf.
func (st *Store) shardBuf() []byte {
	longest := st.longestShard()
	var buf []byte
	shardBufs.Lock()
	if n := len(shardBufs.free); n > 0 {
		buf = shardBufs.free[n-1]
		shardBufs.free[n-1] = nil
		shardBufs.free = shardBufs.free[:n-1]
	}
	shardBufs.Unlock()
	if int64(cap(buf)) < longest {
		buf = make([]byte, longest)
	}
	return buf
}

// buildShardOrder partitions the read-order permutation by shard, and
// finds where each shard is read for the last time, once.
func (st *Store) buildShardOrder() {
	st.shardOrderOnce.Do(func() {
		st.shardOrder = make([][]uint32, len(st.shards))
		st.lastRead = make([]int, len(st.shards))
		for i, phys := range st.order {
			s := st.points[phys].shard
			st.shardOrder[s] = append(st.shardOrder[s], phys)
			st.lastRead[s] = i
		}
	})
}

// ShardReadOrder returns shard s's points as (offset, length) spans within
// the shard's uncompressed stream, in the library's read order restricted
// to that shard.
func (st *Store) ShardReadOrder(s int) ([]Span, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, fmt.Errorf("lpstore: shard %d out of range [0,%d)", s, len(st.shards))
	}
	st.buildShardOrder()
	spans := make([]Span, len(st.shardOrder[s]))
	for i, phys := range st.shardOrder[s] {
		p := st.points[phys]
		spans[i] = Span{Off: p.off, Len: p.len}
	}
	return spans, nil
}

// ShardReadPositions returns the global read-order positions of shard s's
// points, in the shard's read order — parallel to ShardReadOrder's spans.
// Cluster coordinators use it to map a shard lease's results back onto
// library positions.
func (st *Store) ShardReadPositions(s int) ([]int, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, fmt.Errorf("lpstore: shard %d out of range [0,%d)", s, len(st.shards))
	}
	pos := make([]int, 0, st.shards[s].points)
	for i, phys := range st.order {
		if st.points[phys].shard == s {
			pos = append(pos, i)
		}
	}
	return pos, nil
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
// start+count). Each touched shard comes from the store's shared cache of
// inflated, verified shards, so a shard is inflated once per store rather
// than once per call, and at most once within a call whatever the cache
// evicts meanwhile. The slices are shared with every other reader of the
// store: they must not be written. They stay valid after the cache
// evicts their shard and after Close.
func (st *Store) Blobs(start, count int) ([][]byte, error) {
	if start < 0 || count < 0 || start > len(st.order)-count {
		return nil, fmt.Errorf("lpstore: range [%d,%d) out of [0,%d)", start, start+count, len(st.order))
	}
	held := make(map[int][]byte)
	out := make([][]byte, count)
	for i := range out {
		p := st.points[st.order[start+i]]
		data, ok := held[p.shard]
		if !ok {
			var err error
			if data, err = st.shared.get(st, p.shard); err != nil {
				return nil, err
			}
			held[p.shard] = data
		}
		end := p.off + int64(p.len)
		out[i] = data[p.off:end:end]
	}
	return out, nil
}

// Source returns a sequential livepoint.Source over the whole store in
// read order. The returned source also implements livepoint.ShardedSource,
// so parallel runners pull shards concurrently. Closing it does not close
// the store.
func (st *Store) Source() livepoint.Source {
	st.buildShardOrder()
	return &storeSource{st: st, cache: newShardCache(st)}
}

// storeSource walks the store in read order through a cache of inflated
// shards. A shard is freed as soon as the walk has passed its last point:
// a creation-order walk holds one shard at a time, and an index-reshuffled
// one inflates each shard once while the budget lasts.
type storeSource struct {
	st       *Store
	pos      int
	cache    *shardCache
	ownStore bool
}

func (s *storeSource) Meta() livepoint.Meta { return s.st.meta }

func (s *storeSource) NextBlob() ([]byte, error) {
	if s.pos > 0 {
		// The previous blob was borrowed until this call (DESIGN §3.8 rule
		// 1); if it was its shard's last, the shard's buffer is free now.
		if prev := s.st.points[s.st.order[s.pos-1]].shard; s.st.lastRead[prev] == s.pos-1 {
			s.cache.free(prev)
		}
	}
	if s.pos >= len(s.st.order) {
		return nil, io.EOF
	}
	p := s.st.points[s.st.order[s.pos]]
	data, err := s.cache.get(p.shard)
	if err != nil {
		return nil, err
	}
	s.pos++
	return data[p.off : p.off+int64(p.len)], nil
}

func (s *storeSource) Close() error {
	s.cache.release()
	if s.ownStore {
		return s.st.Close()
	}
	return nil
}

func (s *storeSource) NumShards() int { return s.st.NumShards() }

func (s *storeSource) OpenShard(sh int) (livepoint.Source, error) {
	if sh < 0 || sh >= s.st.NumShards() {
		return nil, fmt.Errorf("lpstore: shard %d out of range [0,%d)", sh, s.st.NumShards())
	}
	data, err := s.st.inflateShard(sh, s.st.shardBuf())
	if err != nil {
		return nil, err
	}
	return &shardSource{st: s.st, data: data, ids: s.st.shardOrder[sh]}, nil
}

// shardBufs is the free list behind the sources' inflated-shard buffers.
// A shard is megabytes, and a fresh buffer for each is zeroing, page
// faults and collector cycles that a run repeats for every shard it reads
// and that cost a different amount every time; recycled, a run's load
// stage touches the same warm memory shard after shard and run after run.
// The list is bounded and, unlike a sync.Pool, survives collections: what
// it pins is at most maxFreeShardBufs shards of the largest store read.
// Buffers the public DecompressShard hands out belong to the caller, and
// the shards Blobs shares are the collector's; neither ever comes here.
var shardBufs struct {
	sync.Mutex
	free [][]byte
}

// maxFreeShardBufs covers four loaders; a creation-order serial walk
// holds one buffer at a time.
const maxFreeShardBufs = 4

func releaseShardBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	shardBufs.Lock()
	defer shardBufs.Unlock()
	if len(shardBufs.free) < maxFreeShardBufs {
		shardBufs.free = append(shardBufs.free, buf)
	}
}

// shardSource yields one decompressed shard's points in read order.
type shardSource struct {
	st   *Store
	data []byte
	ids  []uint32
	pos  int
}

func (s *shardSource) Meta() livepoint.Meta { return s.st.meta }

func (s *shardSource) NextBlob() ([]byte, error) {
	if s.pos >= len(s.ids) {
		return nil, io.EOF
	}
	p := s.st.points[s.ids[s.pos]]
	s.pos++
	return s.data[p.off : p.off+int64(p.len)], nil
}

func (s *shardSource) Close() error {
	releaseShardBuf(s.data)
	s.data = nil
	return nil
}

// shardCache holds a store source's inflated shards in recycled buffers:
// as many as shardCacheBudget allows of the store's largest shard, the
// oldest evicted first when a walk needs more.
type shardCache struct {
	st   *Store
	cap  int
	m    map[int][]byte
	fifo []int
}

func newShardCache(st *Store) *shardCache {
	capacity := max(1, int(shardCacheBudget/max(st.longestShard(), 1)))
	return &shardCache{st: st, cap: capacity, m: make(map[int][]byte)}
}

func (c *shardCache) get(s int) ([]byte, error) {
	if data, ok := c.m[s]; ok {
		return data, nil
	}
	var buf []byte
	if len(c.fifo) >= c.cap {
		// The evicted shard's buffer takes the new one: no blob handed out
		// is still valid, the caller having asked for the next.
		buf = c.m[c.fifo[0]]
		delete(c.m, c.fifo[0])
		c.fifo = c.fifo[1:]
	} else {
		buf = c.st.shardBuf()
	}
	data, err := c.st.inflateShard(s, buf)
	if err != nil {
		return nil, err
	}
	c.m[s] = data
	c.fifo = append(c.fifo, s)
	return data, nil
}

// free recycles shard s's buffer, if the cache holds it.
func (c *shardCache) free(s int) {
	data, ok := c.m[s]
	if !ok {
		return
	}
	delete(c.m, s)
	c.fifo = slices.DeleteFunc(c.fifo, func(x int) bool { return x == s })
	releaseShardBuf(data)
}

// release empties the cache and recycles its buffers.
func (c *shardCache) release() {
	for s, data := range c.m {
		releaseShardBuf(data)
		delete(c.m, s)
	}
	c.fifo = c.fifo[:0]
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

// indexLenAt re-reads the stored index length (openFile already validated
// the trailer). A short read must fail loudly: truncating the file at an
// offset derived from a garbage trailer would destroy shard data.
func indexLenAt(f *os.File, size int64) (int64, error) {
	var trailer [trailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-trailerLen); err != nil {
		return 0, fmt.Errorf("lpstore: read trailer: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(trailer[:8])), nil
}

// appendTrailer suffixes an encoded index with its length and the trailer
// magic.
func appendTrailer(idx []byte) []byte {
	out := make([]byte, len(idx)+trailerLen)
	copy(out, idx)
	binary.LittleEndian.PutUint64(out[len(idx):], uint64(len(idx)))
	copy(out[len(idx)+8:], trailerMagic)
	return out
}

// encodeIndex serializes the footer index.
func (st *Store) encodeIndex() []byte {
	b := asn1der.NewBuilder()
	b.Sequence(func(b *asn1der.Builder) {
		b.UTF8String(idxMagic)
		b.UTF8String(st.meta.Benchmark)
		b.Uint64(uint64(st.meta.Count))
		b.Uint64(st.meta.UnitLen)
		b.Uint64(st.meta.WarmLen)
		b.Bool(st.meta.Shuffled)
		b.Uint64(uint64(st.uncompressed))

		shards := make([]byte, shardRecordLen*len(st.shards))
		for i, sh := range st.shards {
			rec := shards[i*shardRecordLen:]
			binary.LittleEndian.PutUint64(rec, uint64(sh.dataOff))
			binary.LittleEndian.PutUint64(rec[8:], uint64(sh.compLen))
			binary.LittleEndian.PutUint64(rec[16:], uint64(sh.uncompLen))
			binary.LittleEndian.PutUint32(rec[24:], uint32(sh.points))
		}
		b.OctetString(shards)

		points := make([]byte, pointRecordLen*len(st.points))
		for i, p := range st.points {
			rec := points[i*pointRecordLen:]
			binary.LittleEndian.PutUint32(rec, uint32(p.shard))
			binary.LittleEndian.PutUint64(rec[4:], uint64(p.off))
			binary.LittleEndian.PutUint32(rec[12:], uint32(p.len))
		}
		b.OctetString(points)

		order := make([]byte, 4*len(st.order))
		for i, p := range st.order {
			binary.LittleEndian.PutUint32(order[i*4:], p)
		}
		b.OctetString(order)
	})
	return b.Bytes()
}

// decodeIndex parses the footer index, which starts at file offset idxOff,
// into the store and validates it.
func (st *Store) decodeIndex(buf []byte, idxOff int64) error {
	d, err := asn1der.NewDecoder(buf).Sequence()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	magic, err := d.UTF8String()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if magic != idxMagic {
		return fmt.Errorf("index magic %q, want %q", magic, idxMagic)
	}
	if st.meta.Benchmark, err = d.UTF8String(); err != nil {
		return err
	}
	count, err := d.Uint64()
	if err != nil {
		return err
	}
	st.meta.Count = int(count)
	if st.meta.UnitLen, err = d.Uint64(); err != nil {
		return err
	}
	if st.meta.WarmLen, err = d.Uint64(); err != nil {
		return err
	}
	if st.meta.Shuffled, err = d.Bool(); err != nil {
		return err
	}
	uncompressed, err := d.Uint64()
	if err != nil {
		return err
	}
	st.uncompressed = int64(uncompressed)

	shards, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(shards)%shardRecordLen != 0 {
		return fmt.Errorf("shard table length %d not a multiple of %d", len(shards), shardRecordLen)
	}
	st.shards = make([]shardInfo, len(shards)/shardRecordLen)
	for i := range st.shards {
		rec := shards[i*shardRecordLen:]
		st.shards[i] = shardInfo{
			dataOff:   int64(binary.LittleEndian.Uint64(rec)),
			compLen:   int64(binary.LittleEndian.Uint64(rec[8:])),
			uncompLen: int64(binary.LittleEndian.Uint64(rec[16:])),
			points:    int(binary.LittleEndian.Uint32(rec[24:])),
		}
	}

	points, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(points)%pointRecordLen != 0 {
		return fmt.Errorf("point table length %d not a multiple of %d", len(points), pointRecordLen)
	}
	st.points = make([]pointInfo, len(points)/pointRecordLen)
	for i := range st.points {
		rec := points[i*pointRecordLen:]
		st.points[i] = pointInfo{
			shard: int(binary.LittleEndian.Uint32(rec)),
			off:   int64(binary.LittleEndian.Uint64(rec[4:])),
			len:   int(binary.LittleEndian.Uint32(rec[12:])),
		}
	}

	orderBytes, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(orderBytes)%4 != 0 {
		return fmt.Errorf("order table length %d not a multiple of 4", len(orderBytes))
	}
	st.order = make([]uint32, len(orderBytes)/4)
	for i := range st.order {
		st.order[i] = binary.LittleEndian.Uint32(orderBytes[i*4:])
	}
	return st.validate(idxOff)
}

// validate cross-checks the decoded index, which is outside input: nothing
// read from it is used as an offset, a length or an allocation size before
// it has passed here. Shard streams must lie between the file magic and the
// index and declare no more than their bytes could inflate to; within each
// shard, the points' spans in storage order must tile [0, uncompLen) exactly
// — the layout Write produces — so a damaged offset or length is refused
// here instead of selecting the wrong bytes of an intact shard; and the read
// order must be a permutation. Metadata (benchmark, unit and warming
// lengths, the Shuffled flag) has no redundancy to check against.
func (st *Store) validate(idxOff int64) error {
	if len(st.points) != st.meta.Count {
		return fmt.Errorf("index declares %d points, point table has %d", st.meta.Count, len(st.points))
	}
	if len(st.order) != st.meta.Count {
		return fmt.Errorf("order table has %d entries for %d points", len(st.order), st.meta.Count)
	}
	for s, sh := range st.shards {
		if sh.dataOff < int64(len(fileMagic)) || sh.compLen < 0 || sh.compLen > idxOff-sh.dataOff {
			return fmt.Errorf("shard %d stream [%d,+%d) outside the data region [%d,%d)", s, sh.dataOff, sh.compLen, len(fileMagic), idxOff)
		}
		if sh.uncompLen < 0 || sh.uncompLen > maxInflate*sh.compLen {
			return fmt.Errorf("shard %d declares %d bytes inflated from %d", s, sh.uncompLen, sh.compLen)
		}
	}
	perShard := make([]int, len(st.shards))
	end := make([]int64, len(st.shards)) // running end of each shard's spans
	for i, p := range st.points {
		if p.shard < 0 || p.shard >= len(st.shards) {
			return fmt.Errorf("point %d in shard %d of %d", i, p.shard, len(st.shards))
		}
		if p.off != end[p.shard] {
			return fmt.Errorf("point %d starts at %d in shard %d, previous point ends at %d", i, p.off, p.shard, end[p.shard])
		}
		end[p.shard] += int64(p.len)
		perShard[p.shard]++
	}
	for s, sh := range st.shards {
		if perShard[s] != sh.points {
			return fmt.Errorf("shard %d declares %d points, point table has %d", s, sh.points, perShard[s])
		}
		if end[s] != sh.uncompLen {
			return fmt.Errorf("shard %d points cover %d bytes of %d", s, end[s], sh.uncompLen)
		}
	}
	seen := make([]bool, st.meta.Count)
	for _, p := range st.order {
		if int(p) >= st.meta.Count || seen[p] {
			return fmt.Errorf("order table is not a permutation of [0,%d)", st.meta.Count)
		}
		seen[p] = true
	}
	return nil
}
