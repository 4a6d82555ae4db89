package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
)

// writeSynthLibrary builds a small synthetic v2 store and returns its
// path plus the blobs in read order.
func writeSynthLibrary(t *testing.T) (string, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	blobs := make([][]byte, 60)
	for i := range blobs {
		payload := make([]byte, 40+rng.Intn(100))
		rng.Read(payload)
		b := asn1der.NewBuilder()
		b.OctetString(payload)
		blobs[i] = b.Bytes()
	}
	path := filepath.Join(t.TempDir(), "synth.lplib")
	meta := livepoint.Meta{Benchmark: "syn.corrupt", UnitLen: 10, WarmLen: 20, Shuffled: true}
	if _, err := lpstore.Write(path, meta, blobs, lpstore.WriteOpts{ShardPoints: 7}); err != nil {
		t.Fatal(err)
	}
	st, err := lpstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ordered, err := st.Blobs(0, st.Count())
	if err != nil {
		t.Fatal(err)
	}
	// Detach from the store's shard buffers before closing it.
	out := make([][]byte, len(ordered))
	for i, b := range ordered {
		out[i] = append([]byte(nil), b...)
	}
	return path, out
}

// sweepSeeds is the number of single-byte flips tried per region.
const sweepSeeds = 256

// readAll opens a (possibly corrupted) library and reads every blob.
func readAll(path string) ([][]byte, error) {
	st, err := lpstore.Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	blobs, err := st.Blobs(0, st.Count())
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(blobs))
	for i, b := range blobs {
		out[i] = append([]byte(nil), b...)
	}
	return out, nil
}

// TestCorruptFileNeverSilent is the safety property of the store's
// integrity layers: a single flipped byte anywhere in the file must
// never produce successfully-decoded data that differs from the
// original. An error is fine (detected); identical output is fine (the
// flip hit a byte no decoder consults, like a gzip MTIME field);
// different output is the one forbidden outcome. The sweep is wide enough
// to land on every field of the footer index several times over: 24 seeds
// used to pass while one index flip in sixteen went unnoticed.
func TestCorruptFileNeverSilent(t *testing.T) {
	src, want := writeSynthLibrary(t)
	dst := filepath.Join(t.TempDir(), "flipped.lplib")
	detected := map[Region]int{}
	for _, region := range []Region{RegionShard, RegionIndex, RegionTrailer} {
		for seed := uint64(0); seed < sweepSeeds; seed++ {
			off, err := CorruptFile(src, dst, region, seed)
			if err != nil {
				t.Fatalf("region %v seed %d: %v", region, seed, err)
			}
			got, err := readAll(dst)
			if err != nil {
				detected[region]++
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("region %v seed %d (offset %d): read %d blobs, want %d — silent corruption",
					region, seed, off, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("region %v seed %d (offset %d): blob %d silently corrupted",
						region, seed, off, i)
				}
			}
		}
	}
	// The corruptor must actually be exercising the error paths, not
	// landing exclusively on dead bytes.
	for _, region := range []Region{RegionShard, RegionIndex, RegionTrailer} {
		if detected[region] == 0 {
			t.Errorf("region %v: no seed of %d produced a detected error; corruptor is not reaching live bytes", region, sweepSeeds)
		}
	}
}

// TestCorruptFilePinnedSeeds pins one known-detected seed per region so
// the decode error paths stay exercised deterministically even if the
// sweep above ever shrinks.
func TestCorruptFilePinnedSeeds(t *testing.T) {
	src, _ := writeSynthLibrary(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		region Region
		seed   uint64
	}{
		{RegionShard, 0},
		{RegionIndex, 0},
		// A shard's uncompressed length made absurd: read as an allocation
		// size, it killed the process (a 280 TB make) instead of erroring.
		{RegionIndex, 30},
		// A point's span moved within its shard: it selected the wrong
		// bytes of an intact, checksum-verified stream, silently.
		{RegionIndex, 57},
		{RegionTrailer, 0},
	} {
		dst := filepath.Join(dir, fmt.Sprintf("pin-%v-%d.lplib", tc.region, tc.seed))
		if _, err := CorruptFile(src, dst, tc.region, tc.seed); err != nil {
			t.Fatalf("region %v: %v", tc.region, err)
		}
		if _, err := readAll(dst); err == nil {
			t.Errorf("region %v seed %d: corruption went undetected (update the pinned seed if the flip landed on a dead byte)",
				tc.region, tc.seed)
		}
	}
}
