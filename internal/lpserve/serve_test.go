package lpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livepoints/internal/asn1der"
	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// buildRealLibrary creates a small real live-point library and returns the
// encoded blobs in creation order.
func buildRealLibrary(t *testing.T, name string, scale float64, stride int) (livepoint.Meta, [][]byte) {
	t.Helper()
	cfg := uarch.Config8Way()
	spec, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Generate(spec, scale)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), stride, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
	var blobs [][]byte
	err = livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
		b, _ := livepoint.Encode(lp)
		blobs = append(blobs, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := livepoint.Meta{Benchmark: name, UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	return meta, blobs
}

// TestServeParity is the subsystem's acceptance check: the same library
// must produce a bit-equal Estimate whether simulated from the local store
// or over lpserve on localhost.
func TestServeParity(t *testing.T) {
	cfg := uarch.Config8Way()
	meta, blobs := buildRealLibrary(t, "syn.gzip", 0.01, 20)

	v2 := filepath.Join(t.TempDir(), "v2.lplib")
	if _, err := lpstore.WriteShuffled(v2, meta, blobs, 0x11E9, lpstore.WriteOpts{ShardPoints: 5}); err != nil {
		t.Fatal(err)
	}

	opts := livepoint.RunOpts{Cfg: cfg}
	fromV2, err := livepoint.RunFile(v2, opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := lpstore.Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(NewServer(st).Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.BatchPoints = 7 // force several ranged fetches
	fromRemote, err := livepoint.RunSource(client.Source(), opts)
	if err != nil {
		t.Fatal(err)
	}

	if fromV2.Processed != len(blobs) || fromRemote.Processed != len(blobs) {
		t.Fatalf("processed: local %d, remote %d, of %d points", fromV2.Processed, fromRemote.Processed, len(blobs))
	}
	if !reflect.DeepEqual(fromV2.Est, fromRemote.Est) {
		t.Fatalf("remote estimate not bit-equal to local: %.9f vs %.9f", fromRemote.Est.Mean(), fromV2.Est.Mean())
	}

	// Parallel runs fold in completion order: same set of points, mean
	// equal to rounding.
	parV2, err := livepoint.RunFile(v2, livepoint.RunOpts{Cfg: cfg, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	parRemote, err := livepoint.RunSource(client.Source(), livepoint.RunOpts{Cfg: cfg, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []*livepoint.RunResult{parV2, parRemote} {
		if par.Processed != fromV2.Processed {
			t.Fatalf("parallel processed %d, want %d", par.Processed, fromV2.Processed)
		}
		if math.Abs(par.Est.Mean()-fromV2.Est.Mean()) > 1e-12 {
			t.Fatalf("parallel mean %.12f differs from serial %.12f", par.Est.Mean(), fromV2.Est.Mean())
		}
	}

	// Matched-pair over the remote source.
	exp := cfg
	exp.Name = "slow-mem"
	exp.Hier.MemLat = 200
	mrLocal, err := livepoint.RunMatchedFile(v2, livepoint.MatchedOpts{Base: cfg, Exp: exp, Z: sampling.Z997})
	if err != nil {
		t.Fatal(err)
	}
	mrRemote, err := livepoint.RunMatchedSource(client.Source(), livepoint.MatchedOpts{Base: cfg, Exp: exp, Z: sampling.Z997})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mrLocal.MP, mrRemote.MP) {
		t.Fatalf("remote matched pair differs: Δ %.9f vs %.9f", mrRemote.MP.MeanDelta(), mrLocal.MP.MeanDelta())
	}
}

// synthStore builds a store of synthetic DER blobs for protocol tests.
func synthStore(t *testing.T, n, shardPoints int) (*lpstore.Store, [][]byte) {
	t.Helper()
	return synthStoreOf(t, n, shardPoints, 50, 200)
}

// synthStoreOf is synthStore with payloads of least+[0,spread) bytes.
func synthStoreOf(t *testing.T, n, shardPoints, least, spread int) (*lpstore.Store, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	blobs := make([][]byte, n)
	for i := range blobs {
		payload := make([]byte, least+rng.Intn(spread))
		rng.Read(payload)
		b := asn1der.NewBuilder()
		b.OctetString(payload)
		blobs[i] = b.Bytes()
	}
	path := filepath.Join(t.TempDir(), "synth.lplib")
	meta := livepoint.Meta{Benchmark: "syn.protocol", UnitLen: 10, WarmLen: 20, Shuffled: true}
	if _, err := lpstore.Write(path, meta, blobs, lpstore.WriteOpts{ShardPoints: shardPoints}); err != nil {
		t.Fatal(err)
	}
	st, err := lpstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, blobs
}

func TestEndpoints(t *testing.T) {
	st, blobs := synthStore(t, 23, 4)
	ts := httptest.NewServer(NewServer(st).Handler())
	defer ts.Close()

	// Stat.
	var stat lpstore.Stat
	resp, err := http.Get(ts.URL + "/v1/stat")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stat.Points != 23 || stat.Shards != 6 || !stat.Shuffled || stat.Benchmark != "syn.protocol" {
		t.Fatalf("stat %+v", stat)
	}

	// Shard listing.
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var shards []ShardStat
	if err := client.DoJSON(context.Background(), http.MethodGet, "/v1/shards", nil, &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 6 {
		t.Fatalf("%d shards, want 6", len(shards))
	}
	var totalPoints int
	for _, sh := range shards {
		totalPoints += sh.Points
	}
	if totalPoints != 23 {
		t.Fatalf("shards list %d points, want 23", totalPoints)
	}

	// Ranged fetch with clamping.
	resp, err = http.Get(ts.URL + "/v1/points?start=20&count=50")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Lplib-Points"); got != "3" {
		t.Fatalf("clamped batch returned %s points, want 3", got)
	}
	if want := bytes.Join(blobs[20:23], nil); !bytes.Equal(body, want) {
		t.Fatal("ranged fetch body mismatch")
	}

	// Error statuses.
	for path, want := range map[string]int{
		"/v1/points?start=-1&count=5": http.StatusBadRequest,
		"/v1/points?start=0&count=0":  http.StatusBadRequest,
		"/v1/points?start=99&count=1": http.StatusNotFound,
		"/v1/shards/99":               http.StatusNotFound,
		"/v1/shards/x":                http.StatusBadRequest,
		"/v1/shards/99/index":         http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Shard passthrough bytes must equal the stored raw bytes.
	raw, n, err := st.ShardRaw(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(raw)
	if err != nil || int64(len(want)) != n {
		t.Fatalf("raw shard read: %d bytes, %v", len(want), err)
	}
	resp, err = http.Get(ts.URL + "/v1/shards/2")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, want) {
		t.Fatal("shard endpoint did not pass stored gzip bytes through verbatim")
	}

	// Client shard source covers all points exactly once, in read order.
	src := client.Source().(livepoint.ShardedSource)
	var count int
	for s := 0; s < src.NumShards(); s++ {
		sub, err := src.OpenShard(s)
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := sub.NextBlob()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatal("empty blob from shard source")
			}
			count++
		}
		sub.Close()
	}
	if count != 23 {
		t.Fatalf("shard sources yielded %d points, want 23", count)
	}
}

// TestFetchBatchBeyondBatchCap: the server clamps a /v1/points response
// at MaxBatchPoints, so a batch asked for past the cap is answered for
// another request — a *ProtocolError, not a short batch.
func TestFetchBatchBeyondBatchCap(t *testing.T) {
	const n = MaxBatchPoints + 150
	st, _ := synthStore(t, n, 512)
	ts := httptest.NewServer(NewServer(st).Handler())
	defer ts.Close()
	cl, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.FetchBatch(context.Background(), 0, n)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("FetchBatch beyond MaxBatchPoints: %v, want a ProtocolError", err)
	}
}

// TestMetricsEndpoint scrapes /metrics after a few requests and checks
// the per-endpoint series and the exposition format headers.
func TestMetricsEndpoint(t *testing.T) {
	st, _ := synthStore(t, 12, 4)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServerWithMetrics(st, reg).Handler())
	defer ts.Close()

	for _, p := range []string{
		"/v1/stat",
		"/v1/points?start=0&count=5",
		"/v1/points?start=-1&count=2", // 400: error statuses get their own series
		"/v1/shards/0",
	} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE lpserve_http_requests_total counter",
		`lpserve_http_requests_total{endpoint="GET /v1/stat",code="200"} 1`,
		`lpserve_http_requests_total{endpoint="GET /v1/points",code="200"} 1`,
		`lpserve_http_requests_total{endpoint="GET /v1/points",code="400"} 1`,
		`lpserve_http_requests_total{endpoint="GET /v1/shards/{id}",code="200"} 1`,
		"# TYPE lpserve_http_request_seconds histogram",
		`lpserve_http_request_seconds_bucket{endpoint="GET /v1/stat",le="+Inf"} 1`,
		`lpserve_http_request_seconds_count{endpoint="GET /v1/stat"} 1`,
		`lpserve_http_response_bytes_total{endpoint="GET /v1/points"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps
// nothing, so a handler's own allocations can be measured.
type discardWriter struct {
	header http.Header
	bytes  int64
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	return len(p), nil
}

// TestShardServingReusesCopyBuffer: serving a shard allocates far less
// than the 32 KB copy buffer io.Copy would make for every request, and the
// response-bytes counter still counts every byte served.
func TestShardServingReusesCopyBuffer(t *testing.T) {
	st, _ := synthStoreOf(t, 64, 64, 1000, 200)
	_, stored, _, err := st.ShardStat(0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := NewServerWithMetrics(st, reg).Handler()
	w := &discardWriter{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/v1/shards/0", nil)
	h.ServeHTTP(w, req) // the first request fills the pool

	// Enough requests that the race detector's random drops from the pool
	// stay far below the bound.
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range n {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&m1)
	if w.bytes != (n+1)*stored {
		t.Fatalf("served %d bytes in %d requests, want %d a request", w.bytes, n+1, stored)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= n*16<<10 {
		t.Errorf("%d shard requests allocated %d bytes (%d a request), want under 16 KB a request", n, got, got/n)
	}
	served := reg.Counter("lpserve_http_response_bytes_total", "", "endpoint", "GET /v1/shards/{id}").Value()
	if served != uint64(w.bytes) {
		t.Errorf("lpserve_http_response_bytes_total counts %d bytes, the handler wrote %d", served, w.bytes)
	}
}

// TestClientRetryMetrics checks the client's outcome counters: a 503
// retried into a 200 counts two attempts, one retry, and one response per
// status; a 4xx is terminal and not retried.
func TestClientRetryMetrics(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.Error(w, "no", http.StatusNotFound)
			return
		}
		if calls.Add(1) == 1 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	cl := New(ts.URL)
	cl.Metrics = reg
	cl.Retry = RetryPolicy{Max: 3, Base: time.Millisecond, Cap: time.Millisecond}

	ctx := context.Background()
	var out map[string]bool
	if err := cl.DoJSON(ctx, http.MethodGet, "/flaky", nil, &out); err != nil {
		t.Fatal(err)
	}
	if !out["ok"] {
		t.Fatalf("unexpected body: %+v", out)
	}
	if err := cl.DoJSON(ctx, http.MethodGet, "/missing", nil, nil); !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("GET /missing: %v, want 404", err)
	}

	checks := map[*obs.Counter]uint64{
		reg.Counter("lpserve_client_attempts_total", ""):                 3, // 503, 200, 404
		reg.Counter("lpserve_client_retries_total", ""):                  1,
		reg.Counter("lpserve_client_responses_total", "", "code", "503"): 1,
		reg.Counter("lpserve_client_responses_total", "", "code", "200"): 1,
		reg.Counter("lpserve_client_responses_total", "", "code", "404"): 1,
		reg.Counter("lpserve_client_transport_errors_total", ""):         0,
	}
	for c, want := range checks {
		if got := c.Value(); got != want {
			t.Errorf("counter value %d, want %d", got, want)
		}
	}
}

// TestConcurrentServeShutdown races Serve against Shutdown (run under
// -race): whichever wins, both must return cleanly.
func TestConcurrentServeShutdown(t *testing.T) {
	st, _ := synthStore(t, 8, 4)
	for i := 0; i < 25; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServerWithMetrics(st, obs.NewRegistry())
		served := make(chan error, 1)
		shut := make(chan error, 1)
		go func() { served <- srv.Serve(l) }()
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shut <- srv.Shutdown(ctx)
		}()
		if err := <-served; err != nil {
			t.Fatalf("iteration %d: Serve: %v", i, err)
		}
		if err := <-shut; err != nil {
			t.Fatalf("iteration %d: Shutdown: %v", i, err)
		}
		l.Close()
	}
}

// TestGracefulShutdown starts a real listener, serves one request, and
// checks Shutdown drains cleanly.
func TestGracefulShutdown(t *testing.T) {
	st, _ := synthStore(t, 8, 4)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	client, err := Dial("http://" + l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if client.Stat().Points != 8 {
		t.Fatalf("stat over real listener: %+v", client.Stat())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
