// Package lpserve streams live-points from a sharded v2 store
// (internal/lpstore) to remote simulation workers over HTTP — the serving
// half of the scale-out story: one lpserved process owns the library file;
// fleets of lpsim workers pull points or whole shards on demand.
//
// Wire surface (all under /v1):
//
//	GET /v1/stat              library metadata (JSON lpstore.Stat)
//	GET /v1/shards            per-shard listing (JSON []ShardStat)
//	GET /v1/shards/{id}       one shard's stored gzip bytes, verbatim —
//	                          the store's compression passes straight
//	                          through; the server never recompresses
//	GET /v1/shards/{id}/index the shard's read order as (off,len) spans
//	                          into its uncompressed stream (JSON []Span)
//	GET /v1/points?start=&count=
//	                          ranged batch fetch: concatenated DER blobs
//	                          at read-order positions [start,start+count)
//	GET /metrics              Prometheus text-format metrics (internal/obs)
//
// Point blobs are self-delimiting DER elements, so batch responses need no
// framing; clients split them in place with livepoint.SplitElement.
//
// Every /v1 endpoint — including those a cluster coordinator mounts via
// Extend — is instrumented: request counts by status, latency histograms,
// and response bytes, all labeled by route pattern and exposed on
// GET /metrics.
package lpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
)

// ShardStat describes one shard in the /v1/shards listing.
type ShardStat struct {
	ID                int   `json:"id"`
	Points            int   `json:"points"`
	CompressedBytes   int64 `json:"compressedBytes"`
	UncompressedBytes int64 `json:"uncompressedBytes"`
}

// MaxBatchPoints caps a single /v1/points response.
const MaxBatchPoints = 4096

// PointsCRCHeader carries the IEEE CRC32 (lowercase hex) of a /v1/points
// response body. Shard downloads are already covered end to end by the
// gzip stream checksum, but ranged batches are raw DER concatenations
// with no integrity layer of their own — a bit flipped between the store
// and a worker would otherwise decode into a plausible live-point and
// fold silently wrong data into the estimate. Clients verify when the
// header is present (older servers simply omit it).
const PointsCRCHeader = "X-Lplib-Crc32"

// pointsCountHeader carries the number of points in a /v1/points response
// body; a client that asked for another number has been answered for
// another request.
const pointsCountHeader = "X-Lplib-Points"

// shardLengthHeader carries the length a /v1/shards/{id} body inflates
// to; the client sizes its buffer by it, but only as a hint.
const shardLengthHeader = "X-Lplib-Shard-Uncompressed"

// Server serves one live-point store over HTTP.
type Server struct {
	st  *lpstore.Store
	mux *http.ServeMux
	hs  *http.Server
	reg *obs.Registry
}

// NewServer builds a server over an open store, registering metrics in
// the process-wide obs.Default registry. The store must outlive the
// server.
func NewServer(st *lpstore.Store) *Server {
	return NewServerWithMetrics(st, obs.Default)
}

// NewServerWithMetrics is NewServer with a caller-owned metrics registry
// (tests isolate their series this way).
func NewServerWithMetrics(st *lpstore.Store, reg *obs.Registry) *Server {
	s := &Server{st: st, mux: http.NewServeMux(), reg: reg}
	// The http.Server is built here, not in Serve, so a concurrent
	// Serve/Shutdown pair never races on the field.
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	s.Extend("GET /v1/stat", s.handleStat)
	s.Extend("GET /v1/shards", s.handleShards)
	s.Extend("GET /v1/shards/{id}", s.handleShardData)
	s.Extend("GET /v1/shards/{id}/index", s.handleShardIndex)
	s.Extend("GET /v1/points", s.handlePoints)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the routing handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Extend registers an additional handler on the server's mux, wrapped in
// the same per-endpoint instrumentation as the built-in routes — the hook
// a cluster coordinator (internal/lpcluster) uses to mount its lease and
// result endpoints beside the store's. Call before Serve.
func (s *Server) Extend(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(pattern, h))
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps a handler with per-endpoint request, latency, and byte
// accounting, labeled by the route pattern (stable cardinality — path
// wildcards and query strings never become label values).
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.reg.Counter("lpserve_http_requests_total", "HTTP requests by endpoint and status code.",
			"endpoint", pattern, "code", strconv.Itoa(sw.status)).Inc()
		s.reg.Histogram("lpserve_http_request_seconds", "HTTP request latency by endpoint.",
			obs.DefSeconds, "endpoint", pattern).Observe(time.Since(t0).Seconds())
		s.reg.Counter("lpserve_http_response_bytes_total", "HTTP response body bytes by endpoint.",
			"endpoint", pattern).Add(uint64(sw.bytes))
	}
}

// Serve accepts connections on l until Shutdown. It returns nil after a
// graceful shutdown. The server bounds header reads and idle keep-alive
// connections so slow or abandoned clients cannot pin goroutines forever.
func (s *Server) Serve(l net.Listener) error {
	if err := s.hs.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown drains in-flight requests and stops the server. Safe to call
// concurrently with Serve: a shutdown that wins the race makes Serve
// return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.st.Stat())
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	out := make([]ShardStat, s.st.NumShards())
	for i := range out {
		points, comp, uncomp, err := s.st.ShardStat(i)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out[i] = ShardStat{ID: i, Points: points, CompressedBytes: comp, UncompressedBytes: uncomp}
	}
	writeJSON(w, out)
}

// shardID parses and range-checks the {id} path value.
func (s *Server) shardID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad shard id", http.StatusBadRequest)
		return 0, false
	}
	if id < 0 || id >= s.st.NumShards() {
		http.Error(w, fmt.Sprintf("shard %d out of range [0,%d)", id, s.st.NumShards()), http.StatusNotFound)
		return 0, false
	}
	return id, true
}

func (s *Server) handleShardData(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardID(w, r)
	if !ok {
		return
	}
	raw, n, err := s.st.ShardRaw(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	points, _, uncomp, err := s.st.ShardStat(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.Header().Set("X-Lplib-Shard-Points", strconv.Itoa(points))
	w.Header().Set(shardLengthHeader, strconv.FormatInt(uncomp, 10))
	pb := copyBufs.Get().(*[]byte)
	io.CopyBuffer(w, raw, *pb)
	copyBufs.Put(pb)
}

// copyBufs holds the buffers shards are served through. statusWriter
// hides the connection's ReaderFrom, and a section of the store file has
// no WriterTo, so io.Copy would allocate 32 KB for every request.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

func (s *Server) handleShardIndex(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardID(w, r)
	if !ok {
		return
	}
	spans, err := s.st.ShardReadOrder(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, spans)
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	start, err := strconv.Atoi(q.Get("start"))
	if err != nil || start < 0 {
		http.Error(w, "bad start", http.StatusBadRequest)
		return
	}
	count, err := strconv.Atoi(q.Get("count"))
	if err != nil || count <= 0 {
		http.Error(w, "bad count", http.StatusBadRequest)
		return
	}
	if start > math.MaxInt-count {
		// Rejected explicitly: a wrapped start+count must never reach the
		// range arithmetic below or the store's slice checks.
		http.Error(w, "start+count overflows", http.StatusBadRequest)
		return
	}
	if count > MaxBatchPoints {
		count = MaxBatchPoints
	}
	total := s.st.Count()
	if start >= total {
		http.Error(w, fmt.Sprintf("start %d beyond library end %d", start, total), http.StatusNotFound)
		return
	}
	if start+count > total {
		count = total - start
	}
	blobs, err := s.st.Blobs(start, count)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var n int
	crc := crc32.NewIEEE()
	for _, b := range blobs {
		n += len(b)
		crc.Write(b)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.Header().Set(pointsCountHeader, strconv.Itoa(count))
	w.Header().Set(PointsCRCHeader, fmt.Sprintf("%08x", crc.Sum32()))
	for _, b := range blobs {
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}
