package lpserve

import (
	"bytes"
	"compress/gzip"
	"context"
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
	"unsafe"

	"livepoints/internal/asn1der"
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

// bigShard is one shard of 800 incompressible points of about a kilobyte
// (a live point is tens of them), inflated, with its points: a declared
// length is believed up to bodyChunk, so a shard far shorter than that
// measures the chunk.
func bigShard(t *testing.T) (data []byte, blobs [][]byte) {
	t.Helper()
	big, blobs := synthStoreOf(t, 800, 800, 1000, 200)
	data, err := big.DecompressShard(0)
	if err != nil {
		t.Fatal(err)
	}
	return data, blobs
}

// gzipped compresses data as a store's shard stream is compressed.
func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// shardFetches fetches shard 0 from a server that answers with gz and
// the length header length, once into a fresh body and once into a
// pooled one that an honest fetch of honest has filled, and calls check
// with each outcome and the bytes the client allocated for it. One
// attempt each: a retry repeats the same fetch.
func shardFetches(t *testing.T, honest, gz []byte, length string, check func(pooled bool, blobs [][]byte, err error, alloc uint64)) {
	t.Helper()
	var body []byte
	var header string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shards/0" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Header().Set(shardLengthHeader, header)
		w.Write(body)
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = RetryPolicy{}
	c.Metrics = obs.NewRegistry()
	for _, pooled := range []bool{false, true} {
		var b Body
		if pooled {
			body, header = gzipped(t, honest), strconv.Itoa(len(honest))
			if _, err := c.ShardBlobsInto(context.Background(), 0, &b); err != nil {
				t.Fatal(err)
			}
		}
		body, header = gz, length
		var m0, m1 runtime.MemStats
		var blobs [][]byte
		var err error
		runtime.ReadMemStats(&m0)
		if pooled {
			blobs, err = c.ShardBlobsInto(context.Background(), 0, &b)
		} else {
			blobs, err = c.ShardBlobs(context.Background(), 0)
		}
		runtime.ReadMemStats(&m1)
		check(pooled, blobs, err, m1.TotalAlloc-m0.TotalAlloc)
		b.Release()
	}
}

// TestShardBlobsLengthIsOnlyAHint: the shard's length header sizes the
// client's inflate buffer, and nothing more. A header of a terabyte buys
// no more than a few times the shard, read into a fresh body or into a
// pooled one, and the shard's every point still arrives.
func TestShardBlobsLengthIsOnlyAHint(t *testing.T) {
	data, want := bigShard(t)
	shardFetches(t, data, gzipped(t, data), "1099511627776", func(pooled bool, blobs [][]byte, err error, alloc uint64) {
		if err != nil {
			t.Fatalf("pooled %v: %v", pooled, err)
		}
		if len(blobs) != len(want) {
			t.Fatalf("pooled %v: %d blobs, want %d", pooled, len(blobs), len(want))
		}
		for i := range want {
			if !bytes.Equal(blobs[i], want[i]) {
				t.Fatalf("pooled %v: blob %d differs", pooled, i)
			}
		}
		if limit := 4 * uint64(len(data)); alloc >= limit {
			t.Errorf("pooled %v: the client allocated %d bytes for a %d-byte shard, want under %d",
				pooled, alloc, len(data), limit)
		}
	})
}

// TestShardBlobsHostileSplits: a shard is split by its points' own DER
// framing, so an inflated shard that does not end on an element boundary
// — stray bytes after its last point, or a last element whose header
// claims a gigabyte that never arrived — is a *ProtocolError, and the
// client believes no claim enough to allocate more than a few times what
// arrived.
func TestShardBlobsHostileSplits(t *testing.T) {
	data, _ := bigShard(t)
	claim := append([]byte{0x04, 0x84, 0x40, 0x00, 0x00, 0x00}, bytes.Repeat([]byte{7}, 10)...)
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"trailing bytes", bytes.Repeat([]byte{0xff}, 7)},
		{"an element claiming 1 GiB", claim},
	} {
		hostile := append(append([]byte{}, data...), tc.tail...)
		shardFetches(t, data, gzipped(t, hostile), strconv.Itoa(len(hostile)), func(pooled bool, _ [][]byte, err error, alloc uint64) {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Errorf("%s (pooled %v): %v, want a ProtocolError", tc.name, pooled, err)
			}
			if limit := 4 * uint64(len(hostile)); alloc >= limit {
				t.Errorf("%s (pooled %v): the client allocated %d bytes for a %d-byte shard, want under %d",
					tc.name, pooled, alloc, len(hostile), limit)
			}
		})
	}
}

// TestShardBlobsOfTinyElements: a shard is split into as many points as
// its framing says, however small: a megabyte of two-byte elements (a
// gzip stream of a kilobyte) costs one slice header a point, counted
// before the slice is sized, and not the header's growth from appends.
func TestShardBlobsOfTinyElements(t *testing.T) {
	data := bytes.Repeat([]byte{0x04, 0x00}, 1<<19)
	shardFetches(t, data, gzipped(t, data), strconv.Itoa(len(data)), func(pooled bool, blobs [][]byte, err error, alloc uint64) {
		if err != nil || len(blobs) != 1<<19 {
			t.Fatalf("pooled %v: %d blobs, %v; want %d", pooled, len(blobs), err, 1<<19)
		}
		if perPoint := uint64(unsafe.Sizeof(blobs[0])); alloc >= uint64(len(blobs))*perPoint+3*uint64(len(data)) {
			t.Errorf("pooled %v: the client allocated %d bytes for %d points of a %d-byte shard, want under a slice header a point and three times the shard",
				pooled, alloc, len(blobs), len(data))
		}
	})
}
