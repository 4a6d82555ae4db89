package lpstore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

// TestShardsInflateAsGzipDoes: every shard of every creation recipe's
// library — each suite kernel, and syn.gzip, syn.mcf and syn.gcc also
// restricted, 16-way and AW-MRRL, at the determinism pins' tiny scale —
// inflates through the store to the bytes compress/gzip makes of its
// stored stream.
func TestShardsInflateAsGzipDoes(t *testing.T) {
	dir := t.TempDir()
	for i, r := range creationRecipes() {
		path := filepath.Join(dir, fmt.Sprintf("r%d.lplib", i))
		if err := buildRecipe(r, path); err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		for s := 0; s < st.NumShards(); s++ {
			got, err := st.DecompressShard(s)
			if err != nil {
				t.Fatalf("%s, shard %d: %v", r, s, err)
			}
			raw, _, err := st.ShardRaw(s)
			if err != nil {
				t.Fatal(err)
			}
			zr, err := gzip.NewReader(raw)
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, shard %d: %d bytes inflated, compress/gzip makes %d, or other bytes", r, s, len(got), len(want))
			}
		}
		st.Close()
	}
}

// TestInflateSteadyStateAllocs: with the decoder free list warm, inflating
// a shard into a buffer that holds it allocates nothing, DecompressShard
// allocates only the buffer it hands out, and a second walk of a store's
// source, read-ahead included, allocates under 128 bytes a shard: no
// decoder, no Huffman tables, and no table entry, since the table keeps
// one for each shard for the store's life. What is left is the read-ahead
// goroutine's start.
func TestInflateSteadyStateAllocs(t *testing.T) {
	path := writeTestStore(t, synthBlobs(90, 4000), 8, true)
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	buf := make([]byte, st.longestShard())
	inflateAll := func() {
		for s := 0; s < st.NumShards(); s++ {
			if _, err := st.inflateShard(s, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	inflateAll()
	if allocs := testing.AllocsPerRun(5, inflateAll); allocs != 0 {
		t.Errorf("inflating %d shards into a held buffer: %v allocations, want 0", st.NumShards(), allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := st.DecompressShard(0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecompressShard: %v allocations, want 1 (its buffer)", allocs)
	}

	walk := func() {
		src := st.Source()
		defer src.Close()
		for n := 0; ; n++ {
			if _, err := src.NextBlob(); err == io.EOF {
				if n != st.Count() {
					t.Fatalf("walk yielded %d blobs, want %d", n, st.Count())
				}
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	walk()
	// The least of three walks: the runtime starting a thread for the
	// read-ahead's goroutine (some 5 KB, once) is not the walk's cost.
	perShard := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		walk()
		runtime.ReadMemStats(&m1)
		perShard = min(perShard, (m1.TotalAlloc-m0.TotalAlloc)/uint64(st.NumShards()))
	}
	t.Logf("a source walk: %d bytes a shard over %d shards", perShard, st.NumShards())
	if perShard >= 128 { // an entry, a channel and a list element a shard came to 192
		t.Errorf("a source walk allocated %d bytes a shard, want under 128", perShard)
	}
}
