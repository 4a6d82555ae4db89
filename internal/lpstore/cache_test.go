package lpstore

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
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
