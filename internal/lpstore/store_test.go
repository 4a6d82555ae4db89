package lpstore

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
)

// synthBlobs builds n deterministic DER octet-string blobs of varied,
// partially compressible content — structurally valid library points
// without the cost of live-point creation.
func synthBlobs(n, approxLen int) [][]byte {
	rng := rand.New(rand.NewSource(0x5EED))
	blobs := make([][]byte, n)
	for i := range blobs {
		size := approxLen/2 + rng.Intn(approxLen)
		payload := make([]byte, size)
		for j := range payload {
			if j%4 == 0 {
				payload[j] = byte(rng.Intn(256)) // incompressible quarter
			} else {
				payload[j] = byte(i) // compressible runs
			}
		}
		b := asn1der.NewBuilder()
		b.OctetString(payload)
		blobs[i] = b.Bytes()
	}
	return blobs
}

func writeTestStore(t testing.TB, blobs [][]byte, shardPoints int, shuffled bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.lplib")
	meta := livepoint.Meta{Benchmark: "syn.test", UnitLen: 1000, WarmLen: 2000, Shuffled: shuffled}
	info, err := Write(path, meta, blobs, WriteOpts{ShardPoints: shardPoints})
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != len(blobs) {
		t.Fatalf("info.Points = %d, want %d", info.Points, len(blobs))
	}
	wantShards := (len(blobs) + shardPoints - 1) / shardPoints
	if info.Shards != wantShards {
		t.Fatalf("info.Shards = %d, want %d", info.Shards, wantShards)
	}
	return path
}

// gzipHeader is the start of a gzip stream: the leading bytes of a v1
// (sequential gzip) library, which Open must refuse by name.
var gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// drain reads a source to EOF.
func drain(t testing.TB, src livepoint.Source) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		b, err := src.NextBlob()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(b)) // a blob is only valid until the next NextBlob
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	blobs := synthBlobs(53, 700)
	path := writeTestStore(t, blobs, 8, true)

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	m := st.Meta()
	if m.Benchmark != "syn.test" || m.Count != 53 || m.UnitLen != 1000 || m.WarmLen != 2000 || !m.Shuffled {
		t.Fatalf("meta did not round-trip: %+v", m)
	}
	if st.NumShards() != 7 {
		t.Fatalf("NumShards = %d, want 7", st.NumShards())
	}

	// Random access returns each blob byte-exactly.
	for i := range blobs {
		got, err := st.PointBlob(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("PointBlob(%d) mismatch", i)
		}
	}

	// Sequential source preserves write order.
	got := drain(t, st.Source())
	if len(got) != len(blobs) {
		t.Fatalf("sequential read %d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Fatalf("sequential blob %d mismatch", i)
		}
	}

	// Batch access, spanning shard boundaries.
	batch, err := st.Blobs(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batch {
		if !bytes.Equal(b, blobs[5+i]) {
			t.Fatalf("batch blob %d mismatch", i)
		}
	}
	if _, err := st.Blobs(50, 10); err == nil {
		t.Fatal("out-of-range batch should fail")
	}

}

// TestShuffleIsIndexOnly checks Shuffle permutes the read order without
// touching a single byte of shard data.
func TestShuffleIsIndexOnly(t *testing.T) {
	blobs := synthBlobs(40, 500)
	path := writeTestStore(t, blobs, 8, false)

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	dataLen := int64(len(fileMagic)) + st.CompressedBytes()
	st.Close()

	if err := Shuffle(path, 42); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before[:dataLen], after[:dataLen]) {
		t.Fatal("shuffle modified shard data; it must only rewrite the index")
	}

	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Meta().Shuffled {
		t.Fatal("shuffled library not marked shuffled")
	}
	order := st.Order()
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("shuffle left the order untouched")
	}

	// Multiset preserved: every blob still readable, exactly once.
	got := drain(t, st.Source())
	seen := make(map[int]bool)
	for _, b := range got {
		for i := range blobs {
			if bytes.Equal(b, blobs[i]) {
				if seen[i] {
					t.Fatalf("blob %d appears twice after shuffle", i)
				}
				seen[i] = true
				break
			}
		}
	}
	if len(seen) != len(blobs) {
		t.Fatalf("only %d of %d blobs found after shuffle", len(seen), len(blobs))
	}

	// Same seed, same permutation.
	path2 := writeTestStore(t, blobs, 8, false)
	if err := Shuffle(path2, 42); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !reflect.DeepEqual(st.Order(), st2.Order()) {
		t.Fatal("shuffle is not deterministic by seed")
	}
}

// TestOpenRejectsV1AndGarbage covers the v1-file-opened-as-v2 error path
// and corrupt inputs.
func TestOpenRejectsV1AndGarbage(t *testing.T) {
	dir := t.TempDir()

	v1 := filepath.Join(dir, "old.lplib")
	if err := os.WriteFile(v1, gzipHeader, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1); err == nil {
		t.Fatal("Open(v1 file) should fail")
	} else if got := err.Error(); !strings.Contains(got, "v1") || !strings.Contains(got, "lpgen -bench <benchmark> -o "+v1) {
		t.Fatalf("v1 error should name the format and the way out: %v", err)
	}

	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("neither format at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); err == nil {
		t.Fatal("Open(garbage) should fail")
	} else if got := err.Error(); !strings.Contains(got, `"neither "`) || !strings.Contains(got, "lpgen -bench") {
		t.Fatalf("garbage error should name the magic found and the way out: %v", err)
	}

	// Truncating the trailer must be detected.
	v2 := writeTestStore(t, synthBlobs(10, 200), 4, false)
	raw, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.lplib")
	if err := os.WriteFile(trunc, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc); err == nil {
		t.Fatal("Open(truncated v2) should fail")
	}
}

// TestRegisteredOpener checks livepoint.OpenSource opens v2 files through
// the opener this package installs, and that the opener's refusals — a v1
// file, a missing file — reach the caller as they are.
func TestRegisteredOpener(t *testing.T) {
	blobs := synthBlobs(15, 300)
	path := writeTestStore(t, blobs, 4, true)
	src, err := livepoint.OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if got := drain(t, src); len(got) != len(blobs) {
		t.Fatalf("drained %d blobs, want %d", len(got), len(blobs))
	}

	v1 := filepath.Join(t.TempDir(), "old.lplib")
	if err := os.WriteFile(v1, gzipHeader, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := livepoint.OpenSource(v1); err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "lpgen -bench") {
		t.Fatalf("OpenSource(v1 file) should say how to rebuild it, got: %v", err)
	}
	if _, err := livepoint.OpenSource(v1 + ".absent"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenSource(missing file) = %v, want the open error", err)
	}
}

// TestWriteShuffled checks the creation-time shuffle: the library is marked
// shuffled, holds every blob once, in the order rand.Shuffle gives for the
// seed, physically as well as in read order (so shard-major reads are
// random too).
func TestWriteShuffled(t *testing.T) {
	blobs := synthBlobs(40, 300)
	want := append([][]byte(nil), blobs...)
	rand.New(rand.NewSource(42)).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	if bytes.Equal(want[0], blobs[0]) && bytes.Equal(want[1], blobs[1]) {
		t.Fatal("seed 42 left the head of the library in place; pick another seed")
	}

	path := filepath.Join(t.TempDir(), "lib.lplib")
	if _, err := WriteShuffled(path, livepoint.Meta{Benchmark: "syn.test"}, blobs, 42, WriteOpts{ShardPoints: 8}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Meta().Shuffled {
		t.Fatal("library not marked shuffled")
	}
	for i, p := range st.Order() {
		if p != i {
			t.Fatalf("read position %d is physical point %d: the shuffle should be physical", i, p)
		}
	}
	got := drain(t, st.Source())
	if len(got) != len(want) {
		t.Fatalf("read %d blobs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("read position %d is not the blob the seeded shuffle puts there", i)
		}
	}
}

func TestEmptyLibrary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.lplib")
	if _, err := Write(path, livepoint.Meta{Benchmark: "none"}, nil, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != 0 || st.NumShards() != 0 {
		t.Fatalf("empty library: count %d shards %d", st.Count(), st.NumShards())
	}
	if _, err := st.Source().NextBlob(); err != io.EOF {
		t.Fatalf("empty source should EOF, got %v", err)
	}
}

// withIndex copies the library at path with its footer index rewritten by
// edit — a hand-built hostile index over intact shard data.
func withIndex(t testing.TB, path string, edit func(st *Store)) string {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := raw[:int64(len(fileMagic))+st.CompressedBytes()]
	edit(st)
	out := filepath.Join(t.TempDir(), "edited.lplib")
	if err := os.WriteFile(out, append(data, appendTrailer(st.encodeIndex())...), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// hostileIndexes are index edits Open must refuse. Each one, accepted, either
// hands back the wrong bytes of an intact shard, panics a slice expression,
// or sizes an allocation from the index alone.
var hostileIndexes = []struct {
	name string
	edit func(st *Store)
}{
	// off+len wraps negative, which a "span ends within the shard" check
	// accepts; PointBlob then slices out of range.
	{"wrapped span", func(st *Store) { st.points[3] = pointInfo{shard: st.points[3].shard, off: 1<<63 - 5, len: 100} }},
	{"span shifted inside its shard", func(st *Store) { st.points[1].off-- }},
	{"span shortened", func(st *Store) { st.points[1].len-- }},
	{"shard length absurd", func(st *Store) { st.shards[0].uncompLen = 1 << 48 }},
	{"shard length absurd, spans agree", func(st *Store) {
		grow := int64(1<<32-1) - int64(st.points[3].len) // points 0..3 are shard 0
		st.points[3].len += int(grow)
		st.shards[0].uncompLen += grow
	}},
	{"shard stream inside the magic", func(st *Store) { st.shards[0].dataOff = 2 }},
	{"shard stream past the index", func(st *Store) { st.shards[2].compLen += 1 << 20 }},
	{"shard stream length wraps", func(st *Store) { st.shards[1].compLen = 1<<63 - 1 }},
	{"order repeats a point", func(st *Store) { st.order[0] = st.order[1] }},
}

// TestOpenRefusesHostileIndex: the index is the only door into a library,
// so everything it says is checked before it is used.
func TestOpenRefusesHostileIndex(t *testing.T) {
	path := writeTestStore(t, synthBlobs(10, 200), 4, false)
	for _, tc := range hostileIndexes {
		st, err := Open(withIndex(t, path, tc.edit))
		if err == nil {
			st.Close()
			t.Errorf("%s: Open accepted the index", tc.name)
		}
	}
	// The edit helper itself must round-trip, or the cases above prove nothing.
	st, err := Open(withIndex(t, path, func(*Store) {}))
	if err != nil {
		t.Fatalf("unedited index refused: %v", err)
	}
	st.Close()
}

// TestDecompressShardExactLength: a shard stream that inflates past its
// indexed length is an index/data mismatch, not trailing bytes to ignore.
func TestDecompressShardExactLength(t *testing.T) {
	path := writeTestStore(t, synthBlobs(10, 200), 4, false)
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.shards[0].uncompLen-- // behind validate's back
	if _, err := st.DecompressShard(0); err == nil || !strings.Contains(err.Error(), "past its indexed length") {
		t.Fatalf("over-long shard stream: %v", err)
	}
}

// TestSourcesRecycleShardBuffers: a store's sources inflate into buffers
// that outlive them, so reading a library again recycles them — and a
// recycled buffer still yields every blob byte for byte, across an
// index-only reshuffle. A walk keeps no more shards in the table than
// shards still ahead of it, keeps each shard from its first read to its
// last (so a reshuffled walk inflates each once), and holds none after
// Close; a creation-order walk keeps two, the one it reads and the one it
// reads ahead.
func TestSourcesRecycleShardBuffers(t *testing.T) {
	blobs := synthBlobs(90, 4000)
	path := writeTestStore(t, blobs, 8, true) // 12 shards
	if err := Shuffle(path, 7); err != nil {  // read order revisits shards
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A walk returns the buffers it read from, by first byte.
	type buffers map[*byte]bool
	serial := func(st *Store, maxLive func(pos int) int) buffers {
		src := st.Source().(*storeSource)
		order := st.Order()
		first := map[int]int{}
		misses := mShardCacheMisses.Value()
		used := buffers{}
		for i := 0; ; i++ {
			b, err := src.NextBlob()
			if err == io.EOF {
				if i != len(blobs) {
					t.Fatalf("source ended after %d of %d blobs", i, len(blobs))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, blobs[order[i]]) {
				t.Fatalf("read position %d: blob differs", i)
			}
			if _, ok := first[st.points[order[i]].shard]; !ok {
				first[st.points[order[i]].shard] = i
			}
			live := inTable(st)
			if len(live) > maxLive(i) {
				t.Fatalf("read position %d: %d shards in the table, want at most %d", i, len(live), maxLive(i))
			}
			for s, at := range first {
				if !live[s] && at < i && st.lastRead[s] >= i {
					t.Fatalf("read position %d: shard %d let go between its reads at %d and %d", i, s, at, st.lastRead[s])
				}
			}
			used[&src.cur.data[0]] = true
		}
		if got := mShardCacheMisses.Value() - misses; got != uint64(st.NumShards()) {
			t.Fatalf("a walk inflated %d times over %d shards, want once each", got, st.NumShards())
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoneHeld(t, st)
		return used
	}
	ahead := func(pos int) int { // shards with a point still to be read at pos or later
		n := 0
		for _, last := range st.lastRead {
			if last >= pos {
				n++
			}
		}
		return n
	}

	first := serial(st, ahead)
	if len(first) < maxFreeShardBufs {
		t.Fatalf("a reshuffled walk over 12 shards used %d buffers", len(first))
	}
	recycled := 0
	again := serial(st, ahead)
	for buf := range again {
		if first[buf] {
			recycled++
		}
	}
	if recycled < maxFreeShardBufs {
		t.Errorf("serial re-read reused %d of the first read's buffers, want the free list's %d", recycled, maxFreeShardBufs)
	}

	// In creation order a shard is done before the one after the next is
	// opened.
	plain, err := Open(writeTestStore(t, blobs, 8, true))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for buf := range serial(plain, func(int) int { return 2 }) {
		if !first[buf] && !again[buf] {
			t.Error("creation-order walk inflated into a new buffer: the reshuffled reads' were not recycled")
		}
	}

	// DecompressShard's buffer is the caller's: no source may write into it.
	own, err := st.DecompressShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if first[&own[0]] {
		t.Fatal("DecompressShard handed out a source's buffer")
	}
	want := bytes.Clone(own)
	serial(st, ahead)
	if !bytes.Equal(own, want) {
		t.Fatal("a source inflated into a buffer DecompressShard had handed out")
	}

	// A source closed mid-walk holds nothing either.
	src := st.Source()
	for range len(blobs) / 2 {
		if _, err := src.NextBlob(); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	assertNoneHeld(t, st)
}

// inTable returns the shards st's table holds inflated or is inflating.
func inTable(st *Store) map[int]bool {
	st.shared.mu.Lock()
	defer st.shared.mu.Unlock()
	live := map[int]bool{}
	for s, e := range st.shared.shards {
		if e.state != absent {
			live[s] = true
		}
	}
	return live
}

// assertNoneHeld fails unless no reader holds a shard of st's table.
func assertNoneHeld(t *testing.T, st *Store) {
	t.Helper()
	st.shared.mu.Lock()
	defer st.shared.mu.Unlock()
	for s, e := range st.shared.shards {
		if e.refs != 0 {
			t.Fatalf("shard %d still has %d references", s, e.refs)
		}
	}
}
