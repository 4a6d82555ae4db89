package lpserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livepoints/internal/asn1der"
	"livepoints/internal/obs"
)

// fastRetry keeps the error-path tests quick without changing semantics.
var fastRetry = RetryPolicy{Max: 2, Base: time.Millisecond, Cap: 4 * time.Millisecond}

func testClient(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	c.Retry = fastRetry
	return c
}

// A persistent 5xx is retried Max times, then surfaces as a StatusError.
func TestClientRetriesServerErrors(t *testing.T) {
	var hits atomic.Int32
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "shard cache on fire", http.StatusInternalServerError)
	})
	err := c.Refresh(context.Background())
	if !IsStatus(err, http.StatusInternalServerError) {
		t.Fatalf("got %v, want wrapped 500", err)
	}
	if got, want := hits.Load(), int32(fastRetry.Max+1); got != want {
		t.Fatalf("server saw %d attempts, want %d", got, want)
	}
	if !strings.Contains(err.Error(), "shard cache on fire") {
		t.Fatalf("server message lost: %v", err)
	}
}

// A transient 5xx burst shorter than the retry budget is invisible to the
// caller.
func TestClientRetrySucceeds(t *testing.T) {
	var hits atomic.Int32
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"benchmark":"syn.gzip","points":7}`))
	})
	if err := c.Refresh(context.Background()); err != nil {
		t.Fatalf("refresh after transient 503s: %v", err)
	}
	if c.Stat().Points != 7 {
		t.Fatalf("stat not refreshed: %+v", c.Stat())
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits.Load())
	}
}

// 4xx means the request itself is wrong; retrying would only repeat it.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int32
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such shard", http.StatusNotFound)
	})
	_, err := c.ShardBlobs(context.Background(), 99)
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("got %v, want wrapped 404", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d attempts for a 404, want 1", hits.Load())
	}
}

// A body that ends mid-element (server died while streaming) must be an
// error, not a short batch.
func TestClientTruncatedBody(t *testing.T) {
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		// A DER header promising 0x1000 content bytes, then nothing.
		w.Write([]byte{0x30, 0x82, 0x10, 0x00})
	})
	if _, err := c.FetchBatch(context.Background(), 0, 2); err == nil {
		t.Fatal("truncated batch body accepted")
	}
}

// Garbage JSON from a confused proxy must fail decode, not poison Stat.
func TestClientMalformedJSON(t *testing.T) {
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>502 Bad Gateway</html>"))
	})
	err := c.Refresh(context.Background())
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("got %v, want a decode error", err)
	}
}

// Nothing listening: transport errors are retried, then reported.
func TestClientUnreachableHost(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // the port is now dead
	c := New(url)
	c.Retry = fastRetry
	if err := c.Refresh(context.Background()); err == nil {
		t.Fatal("refresh against a dead port succeeded")
	}
	if _, err := Dial(url); err == nil {
		t.Fatal("dial against a dead port succeeded")
	}
}

// A cancelled context stops the retry loop immediately.
func TestClientContextCancel(t *testing.T) {
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable)
	})
	c.Retry = RetryPolicy{Max: 50, Base: 10 * time.Millisecond, Cap: 10 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := c.Refresh(ctx)
	if err == nil {
		t.Fatal("refresh survived a cancelled context")
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored cancellation for %v", elapsed)
	}
}

// batchServer answers every /v1/points request with body, the CRC header
// over it, and the given extra headers.
func batchServer(t *testing.T, body []byte, header map[string]string) *Client {
	return testClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(PointsCRCHeader, fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)))
		for k, v := range header {
			w.Header().Set(k, v)
		}
		w.Write(body)
	})
}

// TestBatchContentLengthIsOnlyAHint: the declared length sizes the body
// buffer, and nothing more. A terabyte declared over a short body is the
// transport failure it is, without the client first reserving the
// terabyte; a body longer than the trusted first chunk still arrives
// whole.
func TestBatchContentLengthIsOnlyAHint(t *testing.T) {
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
		w.Write(bytes.Join(derBlobs(2), nil))
	})
	c.Metrics = obs.NewRegistry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := c.FetchBatch(context.Background(), 0, 2)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a body short of its Content-Length was accepted")
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<20 {
		t.Fatalf("the client allocated %d MB on the word of a Content-Length", got>>20)
	}

	var big [][]byte
	for i := 0; i < 3; i++ {
		b := asn1der.NewBuilder()
		b.OctetString(bytes.Repeat([]byte{byte(i + 1)}, 3*bodyChunk/2))
		big = append(big, b.Bytes())
	}
	c = batchServer(t, bytes.Join(big, nil), nil)
	got, err := c.FetchBatch(context.Background(), 0, len(big))
	if err != nil {
		t.Fatalf("a body past the first chunk: %v", err)
	}
	for i := range big {
		if !bytes.Equal(got[i], big[i]) {
			t.Fatalf("a body past the first chunk: blob %d differs", i)
		}
	}

	// Declared, a body past the first chunk grows to its length and no
	// further, through less than twice its length of allocation.
	body := int64(len(bytes.Join(big, nil)))
	c = batchServer(t, bytes.Join(big, nil), map[string]string{"Content-Length": strconv.FormatInt(body, 10)})
	var b Body
	runtime.ReadMemStats(&m0)
	_, err = c.fetchBatch(context.Background(), 0, len(big), &b)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("a declared body past the first chunk: %v", err)
	}
	if got := int64(cap(b.buf)); got > body+1 {
		t.Errorf("a %d-byte body ended in a %d-byte buffer, want at most %d", body, got, body+1)
	}
	if got := int64(m1.TotalAlloc - m0.TotalAlloc); got > 2*body {
		t.Errorf("reading a %d-byte body allocated %d bytes, want at most twice the body", body, got)
	}
}

// TestBatchBodyMustHoldExactlyCount: a body with bytes after the last
// point asked for, or whose point-count header disagrees with the
// request, was answered for some other request: a ProtocolError, even
// when the checksum covers it.
func TestBatchBodyMustHoldExactlyCount(t *testing.T) {
	blobs := derBlobs(3)
	for name, c := range map[string]*Client{
		"a third point":     batchServer(t, bytes.Join(blobs, nil), nil),
		"a cut third point": batchServer(t, bytes.Join(blobs, nil)[:len(blobs[0])+len(blobs[1])+3], nil),
		"count header 3":    batchServer(t, bytes.Join(blobs[:2], nil), map[string]string{pointsCountHeader: "3"}),
		"count header junk": batchServer(t, bytes.Join(blobs[:2], nil), map[string]string{pointsCountHeader: "two"}),
	} {
		c.Metrics = obs.NewRegistry()
		_, err := c.FetchBatch(context.Background(), 0, 2)
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Errorf("%s: %v, want a ProtocolError", name, err)
		}
	}
	c := batchServer(t, bytes.Join(blobs[:2], nil), map[string]string{pointsCountHeader: "2"})
	if got, err := c.FetchBatch(context.Background(), 0, 2); err != nil || len(got) != 2 {
		t.Fatalf("an exact batch: %d blobs, %v", len(got), err)
	}
}

// TestRemoteSourceReusesItsBatch: a serial remote walk fetches every batch
// into one buffer, replaced only by a batch it cannot hold — each blob a
// slice of it, borrowed until the next NextBlob — and still yields every
// point. Close gives the buffer back: the next source on the client reads
// into it again.
func TestRemoteSourceReusesItsBatch(t *testing.T) {
	st, blobs := synthStore(t, 40, 8)
	ts := httptest.NewServer(NewServerWithMetrics(st, obs.NewRegistry()).Handler())
	defer ts.Close()
	cl, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	cl.Metrics = obs.NewRegistry()
	cl.BatchPoints = 10
	src := cl.Source().(*remoteSource)
	defer src.Close()
	var body []byte
	for i := range blobs {
		b, err := src.NextBlob()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, blobs[i]) {
			t.Fatalf("read position %d differs", i)
		}
		if i%10 == 0 {
			if i > 0 && &src.body.buf[0] != &body[0] && len(src.body.buf) <= cap(body) {
				t.Fatalf("batch %d (%d bytes) was fetched into a new buffer, not the %d-byte one it fits", i/10, len(src.body.buf), cap(body))
			}
			body = src.body.buf
		}
	}
	if _, err := src.NextBlob(); err != io.EOF {
		t.Fatalf("after the last point: %v, want io.EOF", err)
	}

	body = src.body.buf
	src.Close()
	next := cl.Source().(*remoteSource)
	defer next.Close()
	b, err := next.NextBlob()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, blobs[0]) {
		t.Fatal("the second source's first point differs")
	}
	if &next.body.buf[:1][0] != &body[:1][0] {
		t.Fatalf("the second source fetched into a new buffer, not the %d-byte one the first gave back", cap(body))
	}
}

// TestRemoteSourceKeepsRoomForLongerBatches: a batch that outgrows a
// remote source's buffer leaves it twice that batch's length, so the later
// batches, some longer than the one that grew it, are all read into the
// same buffer. Without the room, the buffer grew to each new longest
// batch, and a benchmark's allocation turned on which pass met it.
func TestRemoteSourceKeepsRoomForLongerBatches(t *testing.T) {
	st, blobs := synthStore(t, 40, 8)
	ts := httptest.NewServer(NewServerWithMetrics(st, obs.NewRegistry()).Handler())
	defer ts.Close()
	cl, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	cl.Metrics = obs.NewRegistry()
	cl.BatchPoints = 10
	src := cl.Source().(*remoteSource)
	defer src.Close()
	// Start short, not with whatever buffer the free list holds: the
	// first batch must outgrow it.
	src.body.buf = make([]byte, 0, 1)
	var first []byte
	longer := false
	for i := range blobs {
		b, err := src.NextBlob()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, blobs[i]) {
			t.Fatalf("read position %d differs", i)
		}
		switch {
		case i == 0:
			first = src.body.buf
			if cap(first) < 2*len(first) {
				t.Fatalf("the first batch (%d bytes) grew the buffer to %d bytes, want at least twice the batch", len(first), cap(first))
			}
		case i%10 == 0:
			longer = longer || len(src.body.buf) > len(first)
			if &src.body.buf[:1][0] != &first[:1][0] {
				t.Fatalf("batch %d (%d bytes) was fetched into a new buffer, not the %d-byte one the first batch (%d bytes) left", i/10, len(src.body.buf), cap(first), len(first))
			}
		}
	}
	if !longer {
		t.Fatal("no batch was longer than the first, so none tested the room")
	}
}
