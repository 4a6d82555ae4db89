package lpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
)

// derBlobs builds n self-delimiting DER elements for protocol tests.
func derBlobs(n int) [][]byte {
	blobs := make([][]byte, n)
	for i := range blobs {
		b := asn1der.NewBuilder()
		b.OctetString(bytes.Repeat([]byte{byte(i + 1)}, 30+i))
		blobs[i] = b.Bytes()
	}
	return blobs
}

// TestPointsCRCHeader: every /v1/points response must carry the IEEE
// CRC32 of its body — ranged batches are raw DER concatenations with no
// other integrity layer, and a flipped bit would decode into a plausible
// point and fold silently wrong data.
func TestPointsCRCHeader(t *testing.T) {
	st, blobs := synthStore(t, 23, 4)
	ts := httptest.NewServer(NewServer(st).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/points?start=0&count=23")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	h := resp.Header.Get(PointsCRCHeader)
	if h == "" {
		t.Fatalf("no %s header on /v1/points", PointsCRCHeader)
	}
	want, err := strconv.ParseUint(h, 16, 32)
	if err != nil {
		t.Fatalf("unparseable %s header %q: %v", PointsCRCHeader, h, err)
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		t.Fatalf("header crc %08x does not cover the body (crc %08x)", want, got)
	}
	if wantBody := bytes.Join(blobs[:23], nil); !bytes.Equal(body, wantBody) {
		t.Fatal("body mismatch")
	}
}

// TestPointsQueryHardening: negative and overflowing ranges must be 400
// verdicts, not downstream slice arithmetic.
func TestPointsQueryHardening(t *testing.T) {
	st, _ := synthStore(t, 23, 4)
	ts := httptest.NewServer(NewServer(st).Handler())
	defer ts.Close()

	maxInt := strconv.Itoa(int(^uint(0) >> 1))
	for _, q := range []string{
		"start=-1&count=5",
		"start=0&count=-3",
		"start=0&count=0",
		"start=" + maxInt + "&count=2", // start+count wraps negative
		"start=5&count=" + maxInt,      // symmetric overflow
		"start=x&count=1",
		"start=0&count=x",
	} {
		resp, err := http.Get(ts.URL + "/v1/points?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/points?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFetchBatchCRCMismatchRefetched: a corrupted batch body (header CRC
// does not match) must be refetched, not surfaced — and certainly not
// folded. One clean retry later the fetch succeeds.
func TestFetchBatchCRCMismatchRefetched(t *testing.T) {
	blobs := derBlobs(3)
	clean := bytes.Join(blobs, nil)
	var hits atomic.Int32
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		body := clean
		if hits.Add(1) == 1 {
			body = append([]byte(nil), clean...)
			body[5] ^= 0xFF // damaged in flight; header still covers the clean body
		}
		w.Header().Set(PointsCRCHeader, fmt.Sprintf("%08x", crc32.ChecksumIEEE(clean)))
		w.Write(body)
	})
	c.Metrics = obs.NewRegistry()

	got, err := c.FetchBatch(context.Background(), 0, 3)
	if err != nil {
		t.Fatalf("corrupted-then-clean batch not recovered: %v", err)
	}
	for i := range got {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Fatalf("blob %d mismatch after refetch", i)
		}
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", hits.Load())
	}
	if v := c.Metrics.Counter("lpserve_client_integrity_failures_total", "").Value(); v != 1 {
		t.Fatalf("integrity failure counter %d, want 1", v)
	}
	if v := c.Metrics.Counter("lpserve_client_body_retries_total", "").Value(); v != 1 {
		t.Fatalf("body retry counter %d, want 1", v)
	}
}

// TestFetchBatchPersistentCorruption: corruption that survives every
// retry must surface as a ProtocolError (fatal to cluster workers — a
// systematically corrupt peer is not an outage to outwait).
func TestFetchBatchPersistentCorruption(t *testing.T) {
	blobs := derBlobs(2)
	clean := bytes.Join(blobs, nil)
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		body := append([]byte(nil), clean...)
		body[3] ^= 0xFF
		w.Header().Set(PointsCRCHeader, fmt.Sprintf("%08x", crc32.ChecksumIEEE(clean)))
		w.Write(body)
	})
	c.Metrics = obs.NewRegistry()
	_, err := c.FetchBatch(context.Background(), 0, 2)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("persistent corruption surfaced as %v, want ProtocolError", err)
	}
	if v := c.Metrics.Counter("lpserve_client_integrity_failures_total", "").Value(); v != uint64(fastRetry.Max+1) {
		t.Fatalf("integrity failure counter %d, want %d", v, fastRetry.Max+1)
	}
}

// TestFetchBatchWithoutCRCHeader: older servers omit the header; the
// client must still fetch (verification is opportunistic).
func TestFetchBatchWithoutCRCHeader(t *testing.T) {
	blobs := derBlobs(2)
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Join(blobs, nil))
	})
	got, err := c.FetchBatch(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d blobs, want 2", len(got))
	}
}

// TestErrorClassification pins the taxonomy cluster workers branch on:
// moving-bytes failures are TransportError (outage, outwait), delivered
// 2xx garbage is ProtocolError (fatal), server verdicts are StatusError.
func TestErrorClassification(t *testing.T) {
	// Dead port: transport.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	c := New(url)
	c.Retry = fastRetry
	err := c.Refresh(context.Background())
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("dead port surfaced as %v, want TransportError", err)
	}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		t.Fatal("dead port also classified as ProtocolError")
	}

	// Delivered garbage: protocol.
	c2 := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<html>hello</html>")
	})
	err = c2.Refresh(context.Background())
	if !errors.As(err, &pe) {
		t.Fatalf("garbage 2xx surfaced as %v, want ProtocolError", err)
	}
	if errors.As(err, &te) {
		t.Fatal("garbage 2xx also classified as TransportError")
	}

	// Server verdict: status.
	c3 := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})
	err = c3.Refresh(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("400 surfaced as %v, want StatusError{400}", err)
	}
}

// TestShardBlobsCorruptGzipRefetched: shard bytes damaged mid-flight
// fail the gzip CRC and are refetched; one clean retry recovers.
func TestShardBlobsCorruptGzipRefetched(t *testing.T) {
	st, _ := synthStore(t, 23, 4)
	inner := NewServerWithMetrics(st, obs.NewRegistry()).Handler()
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards/1" && hits.Add(1) == 1 {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			body[len(body)/2] ^= 0xFF
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry
	c.Metrics = obs.NewRegistry()

	want, err := st.DecompressShard(1)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := c.ShardBlobs(context.Background(), 1)
	if err != nil {
		t.Fatalf("corrupted-then-clean shard not recovered: %v", err)
	}
	var n int
	for _, b := range blobs {
		n += len(b)
	}
	if n != len(want) {
		t.Fatalf("shard blobs cover %d bytes, want %d", n, len(want))
	}
	if v := c.Metrics.Counter("lpserve_client_body_retries_total", "").Value(); v < 1 {
		t.Fatal("shard corruption did not take the body-retry path")
	}
}

// TestShardBlobsIndexIsOnlyAHint: the shard index sizes the client's
// inflate buffer, and nothing more. An index that undersells the shard
// still gets every byte of the blobs it names; one that names a span
// terabytes past the end is the protocol error it always was, without the
// client first reserving what it claims.
func TestShardBlobsIndexIsOnlyAHint(t *testing.T) {
	st, _ := synthStore(t, 23, 4)
	inner := NewServerWithMetrics(st, obs.NewRegistry()).Handler()
	spans, err := st.ShardReadOrder(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.DecompressShard(1)
	if err != nil {
		t.Fatal(err)
	}
	var index []lpstore.Span
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards/1/index" {
			json.NewEncoder(w).Encode(index)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry
	c.Metrics = obs.NewRegistry()

	// The span that ends the stream is withheld: the hint is short.
	last := 0
	for i, sp := range spans {
		if sp.Off > spans[last].Off {
			last = i
		}
	}
	index = append(append([]lpstore.Span{}, spans[:last]...), spans[last+1:]...)
	blobs, err := c.ShardBlobs(context.Background(), 1)
	if err != nil {
		t.Fatalf("index one span short: %v", err)
	}
	for i, sp := range index {
		if !bytes.Equal(blobs[i], data[sp.Off:sp.Off+int64(sp.Len)]) {
			t.Fatalf("index one span short: blob %d differs", i)
		}
	}

	index = append(append([]lpstore.Span{}, spans...), lpstore.Span{Off: 1 << 40, Len: 1 << 30})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = c.ShardBlobs(context.Background(), 1)
	runtime.ReadMemStats(&m1)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("span past the shard's end: %v, want a ProtocolError", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<20 {
		t.Fatalf("the client allocated %d MB on the word of a lying index", got>>20)
	}

	// On a shard of 800 incompressible points, neither a span a terabyte
	// past its end nor a length header of a terabyte buys more than a few
	// times the shard: read into a fresh body, or into a pooled one that
	// an honest fetch of the shard has filled. One attempt each: a retry
	// repeats the same fetch. The points are about a kilobyte (a live
	// point is tens of them): a declared length is believed up to
	// bodyChunk, so a shard far shorter than that measures the chunk.
	big, _ := synthStoreOf(t, 800, 800, 1000, 200)
	bigSpans, err := big.ShardReadOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	bigData, err := big.DecompressShard(0)
	if err != nil {
		t.Fatal(err)
	}
	raw, n, err := big.ShardRaw(0)
	if err != nil {
		t.Fatal(err)
	}
	gz := make([]byte, n)
	if _, err := io.ReadFull(raw, gz); err != nil {
		t.Fatal(err)
	}
	var bigIndex, length []byte
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/shards/0/index":
			w.Write(bigIndex)
		case "/v1/shards/0":
			w.Header().Set("Content-Length", strconv.Itoa(len(gz)))
			w.Header().Set(shardLengthHeader, string(length))
			w.Write(gz)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c = New(ts.URL)
	c.Retry = RetryPolicy{}
	c.Metrics = obs.NewRegistry()
	honest, _ := json.Marshal(bigSpans)
	lying, _ := json.Marshal(append(append([]lpstore.Span{}, bigSpans...), lpstore.Span{Off: 1 << 40, Len: 1 << 30}))
	for _, tc := range []struct {
		name          string
		index, length []byte
		lie           bool // the index names a span past the shard's end
	}{
		{"a span at 1<<40", lying, []byte(strconv.Itoa(len(bigData))), true},
		{"a length header of 1<<40", honest, []byte("1099511627776"), false},
	} {
		for _, pooled := range []bool{false, true} {
			var b Body
			if pooled {
				bigIndex, length = honest, []byte(strconv.Itoa(len(bigData)))
				if _, err := c.ShardBlobsInto(context.Background(), 0, &b); err != nil {
					t.Fatal(err)
				}
			}
			bigIndex, length = tc.index, tc.length
			runtime.ReadMemStats(&m0)
			if pooled {
				blobs, err = c.ShardBlobsInto(context.Background(), 0, &b)
			} else {
				blobs, err = c.ShardBlobs(context.Background(), 0)
			}
			runtime.ReadMemStats(&m1)
			switch {
			case tc.lie && !errors.As(err, &pe):
				t.Errorf("%s (pooled %v): %v, want a ProtocolError", tc.name, pooled, err)
			case !tc.lie && err != nil:
				t.Errorf("%s (pooled %v): %v", tc.name, pooled, err)
			case !tc.lie:
				for i, sp := range bigSpans {
					if !bytes.Equal(blobs[i], bigData[sp.Off:sp.Off+int64(sp.Len)]) {
						t.Fatalf("%s (pooled %v): blob %d differs", tc.name, pooled, i)
					}
				}
			}
			b.Release()
			if got, want := m1.TotalAlloc-m0.TotalAlloc, 4*uint64(len(bigData)); got >= want {
				t.Errorf("%s (pooled %v): the client allocated %d bytes for a %d-byte shard, want under %d",
					tc.name, pooled, got, len(bigData), want)
			}
		}
	}
}
