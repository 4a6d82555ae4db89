package lpstore

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"livepoints/internal/livepoint"
)

// reshuffledStore writes n synthetic points in 8-point shards, re-permutes
// the read order index-only and opens the result: every batch of it
// scatters over the shards, the access pattern the shared cache is for.
func reshuffledStore(t *testing.T, n int) (*Store, [][]byte) {
	t.Helper()
	blobs := synthBlobs(n, 2000)
	path := writeTestStore(t, blobs, 8, true)
	if err := Shuffle(path, 11); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, blobs
}

// inflatedBlobs is the reference Blobs is held to: every read position's
// bytes cut from a fresh DecompressShard of its shard.
func inflatedBlobs(t *testing.T, st *Store) [][]byte {
	t.Helper()
	shards := make([][]byte, st.NumShards())
	for s := range shards {
		var err error
		if shards[s], err = st.DecompressShard(s); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]byte, st.Count())
	for i, phys := range st.Order() {
		p := st.points[phys]
		out[i] = shards[p.shard][p.off : p.off+int64(p.len)]
	}
	return out
}

// TestBlobsSharedCacheConcurrent: eight readers batch through a
// reshuffled store at once. Each gets the bytes a fresh inflate gives, and
// between them every shard is inflated exactly once — concurrent misses
// on a shard wait for the one inflate instead of repeating it.
func TestBlobsSharedCacheConcurrent(t *testing.T) {
	st, _ := reshuffledStore(t, 100)
	want := inflatedBlobs(t, st)
	misses, bytes0 := mShardCacheMisses.Value(), mShardCacheBytes.Value()

	const readers, batch = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < st.Count(); k += batch {
				start := (k + r*batch) % st.Count() // readers start apart and wrap
				n := min(batch, st.Count()-start)
				got, err := st.Blobs(start, n)
				if err != nil {
					errs <- err
					return
				}
				for i, b := range got {
					if !bytes.Equal(b, want[start+i]) {
						t.Errorf("reader %d: read position %d differs from its inflated shard", r, start+i)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := mShardCacheMisses.Value() - misses; got != uint64(st.NumShards()) {
		t.Fatalf("%d inflates for %d shards read by %d readers, want one each", got, st.NumShards(), readers)
	}
	if got := mShardCacheBytes.Value() - bytes0; got != float64(st.UncompressedBytes()) {
		t.Fatalf("cache gauge rose by %v bytes, want the library's %d", got, st.UncompressedBytes())
	}
	st.Close()
	if got := mShardCacheBytes.Value(); got != bytes0 {
		t.Fatalf("cache gauge %v after Close, want %v", got, bytes0)
	}
}

// TestBlobsCorruptShardFailsEveryCall: a shard that fails its gzip check
// fails every read of it, not only the first — the failure is returned,
// never cached — while intact shards keep serving.
func TestBlobsCorruptShardFailsEveryCall(t *testing.T) {
	path := writeTestStore(t, synthBlobs(24, 500), 8, true)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sh := st.shards[1]
	st.Close()
	raw[sh.dataOff+sh.compLen/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for call := 0; call < 3; call++ {
		if _, err := st.Blobs(0, st.Count()); err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("Blobs call %d over a damaged shard 1: %v", call, err)
		}
		if _, err := st.PointBlob(8); err == nil {
			t.Fatalf("PointBlob call %d into a damaged shard 1 succeeded", call)
		}
		if _, err := st.Blobs(0, 8); err != nil {
			t.Fatalf("call %d: intact shard 0 refused: %v", call, err)
		}
	}
}

// TestBlobsBudgetBelowTwoShards: a cache too small to hold two shards
// still returns the right bytes, and a batch that alternates between
// shards inflates each of them once, however often the cache evicts.
func TestBlobsBudgetBelowTwoShards(t *testing.T) {
	st, _ := reshuffledStore(t, 60)
	want := inflatedBlobs(t, st)
	st.shared.budget = st.longestShard() + 1

	evictions := mShardCacheEvictions.Value()
	const batch = 20
	for start := 0; start < st.Count(); start += batch {
		n := min(batch, st.Count()-start)
		touched := map[int]bool{}
		for _, phys := range st.order[start : start+n] {
			touched[st.points[phys].shard] = true
		}
		misses := mShardCacheMisses.Value()
		got, err := st.Blobs(start, n)
		if err != nil {
			t.Fatal(err)
		}
		if inflated := mShardCacheMisses.Value() - misses; inflated > uint64(len(touched)) {
			t.Fatalf("batch at %d touches %d shards and inflated %d times", start, len(touched), inflated)
		}
		for i, b := range got {
			if !bytes.Equal(b, want[start+i]) {
				t.Fatalf("read position %d differs from its inflated shard", start+i)
			}
		}
		if st.shared.lru.Len() != 1 || st.shared.bytes > st.shared.budget {
			t.Fatalf("cache holds %d shards, %d bytes, over a budget of %d", st.shared.lru.Len(), st.shared.bytes, st.shared.budget)
		}
	}
	if mShardCacheEvictions.Value() == evictions {
		t.Fatal("a cache smaller than two shards never evicted")
	}
}

// TestSourceAndBlobsShareShards: a source walk and a Blobs reader of one
// store, reading each position at once, read one copy of every shard:
// each shard is inflated once between them, and a position's blob from
// either is the same memory.
func TestSourceAndBlobsShareShards(t *testing.T) {
	st, blobs := reshuffledStore(t, 100)
	order := st.Order()
	misses := mShardCacheMisses.Value()
	src := st.Source()
	defer src.Close()
	for i := range st.Count() {
		var fromSrc, fromBlobs []byte
		var srcErr, blobsErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			fromSrc, srcErr = src.NextBlob()
		}()
		go func() {
			defer wg.Done()
			var got [][]byte
			if got, blobsErr = st.Blobs(i, 1); blobsErr == nil {
				fromBlobs = got[0]
			}
		}()
		wg.Wait()
		if srcErr != nil || blobsErr != nil {
			t.Fatalf("read position %d: source: %v, Blobs: %v", i, srcErr, blobsErr)
		}
		if !bytes.Equal(fromSrc, blobs[order[i]]) || !bytes.Equal(fromBlobs, blobs[order[i]]) {
			t.Fatalf("read position %d differs from the written blob", i)
		}
		if &fromSrc[0] != &fromBlobs[0] {
			t.Fatalf("read position %d: the source and Blobs read different copies of its shard", i)
		}
	}
	if got := mShardCacheMisses.Value() - misses; got != uint64(st.NumShards()) {
		t.Fatalf("%d inflates for %d shards read by a source and Blobs, want one each", got, st.NumShards())
	}
}

// TestBlobsOutliveRecycling: slices Blobs handed out stay valid after the
// table evicts their shards, after Close, and after other stores' sources
// have cycled buffers through shardBufs: a shard Blobs handed out is never
// recycled.
func TestBlobsOutliveRecycling(t *testing.T) {
	st, _ := reshuffledStore(t, 60)
	want := inflatedBlobs(t, st)
	held, err := st.Blobs(0, st.Count())
	if err != nil {
		t.Fatal(err)
	}
	evictions := mShardCacheEvictions.Value()
	st.shared.mu.Lock()
	st.shared.budget = 0
	st.shared.mu.Unlock()
	if _, err := st.Blobs(0, 1); err != nil { // its release evicts all but one shard
		t.Fatal(err)
	}
	if got := mShardCacheEvictions.Value() - evictions; got != uint64(st.NumShards()-1) {
		t.Fatalf("%d evictions under a zero budget, want %d", got, st.NumShards()-1)
	}
	st.Close()

	// Smaller shards than st's, so any buffer st gave back would be taken.
	for range 2 {
		other, err := Open(writeTestStore(t, synthBlobs(40, 500), 8, true))
		if err != nil {
			t.Fatal(err)
		}
		src := other.Source()
		drain(t, src)
		src.Close()
		ss := other.Source().(livepoint.ShardedSource)
		for s := range ss.NumShards() {
			sub, err := ss.OpenShard(s)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, sub)
			sub.Close()
		}
		other.Close()
	}
	for i, b := range held {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("read position %d changed after its shard was evicted and its store closed", i)
		}
	}
}

// TestFreeListKeepsTheNewest: a full free list lets its oldest buffer go,
// not the one just given back, so the last buffer released is the next
// taken, whoever released it — a remote source's batch body at Close, say,
// for the next source to read into.
func TestFreeListKeepsTheNewest(t *testing.T) {
	for range maxFreeShardBufs { // empty the list
		TakeShardBuf(0)
	}
	bufs := make([][]byte, maxFreeShardBufs+1)
	for i := range bufs {
		bufs[i] = make([]byte, 1)
		ReleaseShardBuf(bufs[i])
	}
	for i := len(bufs) - 1; i > 0; i-- {
		if got := TakeShardBuf(1); &got[0] != &bufs[i][0] {
			t.Fatalf("a take did not return buffer %d, the newest still on the list", i)
		}
	}
	if got := TakeShardBuf(1); &got[0] == &bufs[0][0] {
		t.Fatal("the oldest buffer stayed on a list given one more than it holds")
	}
}
