// Benchmark harness: BenchmarkArtifacts regenerates every table and figure
// of the paper's evaluation (harness.Artifacts; DESIGN.md §4 is the index),
// one sub-benchmark each, at a reduced scale suitable for `go test -bench`;
// cmd/experiments runs the same ledger at experiment scale.
//
// Each table's headline numbers (bias %, speedups, KB/point) are reported
// through testing.B.ReportMetric, so benchmark output carries them
// alongside wall-clock. The store, cluster and decode benchmarks below
// measure the storage and load paths directly.
package livepoints_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"livepoints/internal/asn1der"
	"livepoints/internal/bpred"
	"livepoints/internal/harness"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// benchCtx lazily builds one shared harness context for all benchmarks, so
// expensive artifacts (goldens, libraries, MRRL analyses) are created once
// and cached on disk.
var (
	ctxOnce sync.Once
	ctx     *harness.Context
)

// benchSubset is a three-benchmark slice of the suite spanning the
// behavioural extremes: compute-bound, memory-bound, branchy.
var benchSubset = []string{"syn.gzip", "syn.mcf", "syn.gcc"}

func benchContext(b *testing.B) *harness.Context {
	b.Helper()
	ctxOnce.Do(func() {
		dir := os.Getenv("LIVEPOINTS_BENCH_OUT")
		if dir == "" {
			dir = "out-bench"
		}
		ctx = harness.NewContext(dir, 0.05)
		ctx.MaxLibPoints = 200
		ctx.Offsets = 1
		ctx.Parallel = 4
		ctx.Benches = benchSubset
	})
	return ctx
}

// BenchmarkArtifacts regenerates each entry of the ledger and reports its
// headline numbers under their metric names.
func BenchmarkArtifacts(b *testing.B) {
	c := benchContext(b)
	for _, a := range harness.Artifacts {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := a.Run(c)
				if err != nil {
					b.Fatal(err)
				}
				for _, h := range t.Headlines {
					b.ReportMetric(h.Value, h.Metric)
				}
			}
		})
	}
}

// storeBenchLib lazily builds one synthetic library shared by the
// BenchmarkStore* variants: 512 DER blobs of ~32 KB of half-compressible
// content, the shape of real live-points.
var (
	storeBenchOnce  sync.Once
	storeBenchV2    string
	storeBenchBytes int64
	storeBenchErr   error
)

func storeBenchSetup(b *testing.B) (v2 string, bytes int64) {
	b.Helper()
	storeBenchOnce.Do(func() {
		const points, blobLen = 512, 32 << 10
		rng := rand.New(rand.NewSource(0xBE7C4))
		blobs := make([][]byte, points)
		for i := range blobs {
			payload := make([]byte, blobLen)
			for j := range payload {
				if j%3 == 0 {
					payload[j] = byte(rng.Intn(256))
				} else {
					payload[j] = byte(i & 0xF)
				}
			}
			bb := asn1der.NewBuilder()
			bb.OctetString(payload)
			blobs[i] = bb.Bytes()
			storeBenchBytes += int64(len(blobs[i]))
		}
		dir, err := os.MkdirTemp("", "lpstore-bench")
		if err != nil {
			storeBenchErr = err
			return
		}
		// The temp dir leaks for the process lifetime; benchmarks share it.
		storeBenchV2 = filepath.Join(dir, "v2.lplib")
		meta := livepoint.Meta{Benchmark: "syn.bench", Shuffled: true}
		if _, err := lpstore.Write(storeBenchV2, meta, blobs, lpstore.WriteOpts{ShardPoints: 32}); err != nil {
			storeBenchErr = err
		}
	})
	if storeBenchErr != nil {
		b.Fatal(storeBenchErr)
	}
	return storeBenchV2, storeBenchBytes
}

// drainSeq reads every blob from a library sequentially.
func drainSeq(b *testing.B, path string) int {
	b.Helper()
	src, err := livepoint.OpenSource(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	n := 0
	for {
		if _, err := src.NextBlob(); err == io.EOF {
			return n
		} else if err != nil {
			b.Fatal(err)
		}
		n++
	}
}

// BenchmarkStoreRead measures library read throughput: one sequential
// reader, which inflates the next shard while it hands out the points of
// the current one.
func BenchmarkStoreRead(b *testing.B) {
	v2, bytes := storeBenchSetup(b)
	b.Run("v2-sequential", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			if n := drainSeq(b, v2); n != 512 {
				b.Fatalf("read %d points, want 512", n)
			}
		}
	})
}

// BenchmarkStoreRandomAccess reads 4 scattered points, inflating only the
// shards that hold them. This is the access pattern of dynamic sample
// allocation, where a scheduler asks for arbitrary subsets at runtime.
func BenchmarkStoreRandomAccess(b *testing.B) {
	v2, _ := storeBenchSetup(b)
	targets := []int{37, 205, 389, 500}
	b.Run("v2-pointblob", func(b *testing.B) {
		st, err := lpstore.Open(v2)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < b.N; i++ {
			got := 0
			for _, pos := range targets {
				blob, err := st.PointBlob(pos)
				if err != nil {
					b.Fatal(err)
				}
				got += len(blob)
			}
			if got == 0 {
				b.Fatal("no bytes read")
			}
		}
	})
}

// BenchmarkStoreShuffle measures reshuffling cost: Shuffle rewrites only
// the footer index.
func BenchmarkStoreShuffle(b *testing.B) {
	v2, _ := storeBenchSetup(b)
	dir := b.TempDir()
	b.Run("v2-index-only", func(b *testing.B) {
		// Shuffle in place on a scratch copy so v2 stays pristine.
		raw, err := os.ReadFile(v2)
		if err != nil {
			b.Fatal(err)
		}
		dst := filepath.Join(dir, "scratch.lplib")
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lpstore.Shuffle(dst, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// clusterBenchLib lazily builds one small simulatable shuffled v2 library
// for the cluster turnaround benchmark.
var (
	clusterLibOnce sync.Once
	clusterLibPath string
	clusterLibErr  error
)

func clusterBenchLib(b *testing.B) string {
	b.Helper()
	clusterLibOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lpcluster-bench")
		if err != nil {
			clusterLibErr = err
			return
		}
		// The temp dir leaks for the process lifetime; benchmarks share it.
		cfg := uarch.Config8Way()
		spec, err := prog.ByName("syn.gzip")
		if err != nil {
			clusterLibErr = err
			return
		}
		p := prog.Generate(spec, 0.01)
		benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
		if err != nil {
			clusterLibErr = err
			return
		}
		design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 2, 1)
		if err != nil {
			clusterLibErr = err
			return
		}
		opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
		var blobs [][]byte
		err = livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
			blob, _ := livepoint.Encode(lp)
			blobs = append(blobs, blob)
			return nil
		})
		if err != nil {
			clusterLibErr = err
			return
		}
		rng := rand.New(rand.NewSource(0x5EED))
		rng.Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
		meta := livepoint.Meta{Benchmark: "syn.gzip", UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
		clusterLibPath = filepath.Join(dir, "cluster.lplib")
		_, clusterLibErr = lpstore.Write(clusterLibPath, meta, blobs, lpstore.WriteOpts{ShardPoints: 8})
	})
	if clusterLibErr != nil {
		b.Fatal(clusterLibErr)
	}
	return clusterLibPath
}

// BenchmarkClusterTurnaround measures whole-library wall time through the
// distributed path — coordinator + N in-process workers over localhost
// HTTP — the paper's §7.2 scale-out claim: turnaround shrinks with fleet
// size because live-points simulate independently. (On a single-core
// machine the workers time-slice one CPU, so the fleet sizes measure
// protocol overhead rather than scale-out.)
func BenchmarkClusterTurnaround(b *testing.B) {
	lib := clusterBenchLib(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var points int
			for i := 0; i < b.N; i++ {
				st, err := lpstore.Open(lib)
				if err != nil {
					b.Fatal(err)
				}
				coord, err := lpcluster.NewCoordinator(st, lpcluster.RunSpec{},
					lpcluster.Options{WaitHint: 10 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				srv := lpserve.NewServer(st)
				coord.Mount(srv)
				ts := httptest.NewServer(srv.Handler())
				cl, err := lpserve.Dial(ts.URL)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var wg sync.WaitGroup
				errc := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wk := lpcluster.NewWorker(fmt.Sprintf("bench-%d", w), cl)
					wg.Add(1)
					go func() {
						defer wg.Done()
						errc <- wk.Run(ctx)
					}()
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					if err != nil {
						b.Fatal(err)
					}
				}
				res, ok := coord.Final()
				if !ok || res.Processed == 0 {
					b.Fatal("cluster run did not finish")
				}
				points = res.Processed
				ts.Close()
				st.Close()
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// decodeBench lazily builds one small library of real live-points (full
// live-state, syn.gzip) shared by the decode-path benchmarks.
var (
	decodeBenchOnce sync.Once
	decodeBench     [][]byte
	decodeBenchErr  error
)

func decodeBenchBlobs(b *testing.B) [][]byte {
	b.Helper()
	decodeBenchOnce.Do(func() {
		cfg := uarch.Config8Way()
		spec, err := prog.ByName("syn.gzip")
		if err != nil {
			decodeBenchErr = err
			return
		}
		p := prog.Generate(spec, 0.02)
		benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
		if err != nil {
			decodeBenchErr = err
			return
		}
		design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), 20, 1)
		if err != nil {
			decodeBenchErr = err
			return
		}
		opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
		decodeBenchErr = livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
			blob, _ := livepoint.Encode(lp)
			decodeBench = append(decodeBench, blob)
			return nil
		})
	})
	if decodeBenchErr != nil {
		b.Fatal(decodeBenchErr)
	}
	return decodeBench
}

// BenchmarkDecodeInto is the steady-state zero-allocation decode: one
// reused LivePoint rotating through the library.
func BenchmarkDecodeInto(b *testing.B) {
	blobs := decodeBenchBlobs(b)
	var lp livepoint.LivePoint
	for _, blob := range blobs {
		if err := livepoint.DecodeInto(&lp, blob); err != nil {
			b.Fatal(err)
		}
	}
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := blobs[i%len(blobs)]
		if err := livepoint.DecodeInto(&lp, blob); err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(blob))
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkLoadPipeline is the blob→warmed-state path the runners use:
// DecodeInto a reused point, reconstruct through a SimArena.
func BenchmarkLoadPipeline(b *testing.B) {
	blobs := decodeBenchBlobs(b)
	cfg := uarch.Config8Way()
	var lp livepoint.LivePoint
	var arena livepoint.SimArena
	for _, blob := range blobs {
		if err := livepoint.DecodeInto(&lp, blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := livepoint.DecodeInto(&lp, blobs[i%len(blobs)]); err != nil {
			b.Fatal(err)
		}
		if _, _, err := arena.Reconstruct(&lp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
