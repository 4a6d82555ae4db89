package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// library is one seeded live-point library on disk, the reference CPI of
// every point, and the write-side timings taken while building it.
type library struct {
	Benchmark         string  `json:"benchmark"`
	Scale             float64 `json:"scale"`
	Points            int     `json:"points"`
	Shards            int     `json:"shards"`
	CompressedBytes   int64   `json:"compressed_bytes"`
	UncompressedBytes int64   `json:"uncompressed_bytes"`
	SHA256            string  `json:"sha256"`

	path string
	// ref[i] is the CPI livepoint.SimBlobs gave the point at creation
	// read-order position i; every pass is checked against a fold of it.
	ref []float64

	benchLen                            uint64
	lenDur, createDur, encDur, writeDur time.Duration
}

// buildLibrary generates the benchmark, captures a live-point at every
// window of a systematic design whose offset comes from seed, shuffles
// the points with seed, writes a v2 store at path and computes the
// reference CPIs from the in-memory blobs (not from the store, so a store
// that hands back different bytes fails the pass checks).
func buildLibrary(bench string, scale float64, seed int64, cfg uarch.Config, path string) (*library, error) {
	spec, err := prog.ByName(bench)
	if err != nil {
		return nil, err
	}
	lib := &library{Benchmark: bench, Scale: scale, path: path}
	p := prog.Generate(spec, scale)

	t0 := time.Now()
	lib.benchLen, err = warm.BenchLength(p, p.TargetLen*4+4_000_000)
	if err != nil {
		return nil, err
	}
	lib.lenDur = time.Since(t0)

	// The design of livepoints.NewDesignFor(p, cfg, 2000), except that the
	// first unit's offset is drawn from the seed instead of fixed at 1.
	stride := 10 * cfg.WindowLen() / uarch.MeasureLen
	if population := int(lib.benchLen / uarch.MeasureLen); population/stride > 2000 {
		stride = population / 2000
	}
	offset := 1 + int(seed%int64(stride))
	design, err := sampling.NewSystematic(lib.benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), stride, offset)
	if err != nil {
		return nil, err
	}

	var blobs [][]byte
	t0 = time.Now()
	err = livepoint.Create(p, design, livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}},
		func(lp *livepoint.LivePoint) error {
			t1 := time.Now()
			blob, _ := livepoint.Encode(lp)
			lib.encDur += time.Since(t1)
			blobs = append(blobs, blob)
			return nil
		})
	if err != nil {
		return nil, err
	}
	lib.createDur = time.Since(t0) - lib.encDur

	rand.New(rand.NewSource(seed)).Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
	meta := livepoint.Meta{Benchmark: bench, UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	t0 = time.Now()
	info, err := lpstore.Write(path, meta, blobs, lpstore.WriteOpts{})
	if err != nil {
		return nil, err
	}
	lib.writeDur = time.Since(t0)
	lib.Points, lib.Shards = info.Points, info.Shards
	lib.CompressedBytes, lib.UncompressedBytes = info.CompressedBytes, info.UncompressedBytes

	if lib.ref, _, err = livepoint.SimBlobs(blobs, cfg); err != nil {
		return nil, err
	}
	if lib.SHA256, err = fileSHA256(path); err != nil {
		return nil, err
	}
	return lib, nil
}

// reshuffledCopy copies the library file and re-permutes the copy's read
// order index-only with lpstore.Shuffle, returning how long Shuffle took.
func reshuffledCopy(src, dst string, seed int64) (time.Duration, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := lpstore.Shuffle(dst, seed); err != nil {
		return 0, fmt.Errorf("reshuffling %s: %w", dst, err)
	}
	return time.Since(t0), nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// foldRef is the read-order Welford fold a serial runner performs over
// the reference CPIs at the given positions.
func foldRef(ref []float64, positions []int) sampling.Estimate {
	var e sampling.Estimate
	for _, p := range positions {
		e.Add(ref[p])
	}
	return e
}
