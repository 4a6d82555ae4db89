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
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
)

// DefaultBatchPoints is the sequential client's ranged-fetch size.
const DefaultBatchPoints = 64

// maxInflate bounds what a DEFLATE stream can expand to: its longest
// match, 258 bytes, costs at least two bits.
const maxInflate = 1032

// DefaultTimeout bounds one request attempt (connect + headers + body)
// when Client.Timeout is unset.
const DefaultTimeout = 30 * time.Second

// RetryPolicy is a capped-exponential backoff schedule: a failed request
// is retried up to Max times, sleeping Base, 2·Base, 4·Base, ... between
// attempts, never more than Cap. Transport errors and 5xx statuses are
// retried; 4xx statuses are terminal (the request itself is wrong).
type RetryPolicy struct {
	Max  int
	Base time.Duration
	Cap  time.Duration
}

// DefaultRetry is the retry schedule clients start with.
var DefaultRetry = RetryPolicy{Max: 3, Base: 50 * time.Millisecond, Cap: 2 * time.Second}

// backoff returns the sleep before retry attempt i (0-based).
func (p RetryPolicy) backoff(i int) time.Duration {
	d := p.Base << uint(i)
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	return d
}

// StatusError is a non-2xx response from the server, preserved so callers
// can branch on the status code (e.g. a coordinator's 409/410 lease
// verdicts) with errors.As.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// retryable reports whether the failure may be transient: every 5xx is,
// anything else the server said is not.
func (e *StatusError) retryable() bool { return e.Code >= 500 }

// TransportError marks a failure that happened while moving bytes —
// connection refused or reset, DNS, per-attempt timeouts, a response
// severed mid-body — after the client's retry budget was exhausted.
// The server may never have seen the request, or may have processed it
// without the answer arriving; either way the outage is worth outwaiting,
// and cluster workers do (in contrast to a *ProtocolError, which is not).
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// ProtocolError marks a delivered but malformed response: the HTTP
// exchange succeeded with a 2xx status, yet the body did not hold what
// the protocol promised (garbage or truncated JSON, a DER stream that
// does not split, a checksum mismatch that survived retries). Retrying
// blindly risks spinning forever against a systematically corrupt peer,
// so callers treat it as fatal rather than as an outage.
type ProtocolError struct{ Err error }

func (e *ProtocolError) Error() string { return e.Err.Error() }
func (e *ProtocolError) Unwrap() error { return e.Err }

// Client talks to one lpserved instance. Its sources implement
// livepoint.Source and livepoint.ShardedSource, so remote libraries plug
// into the same runners as local files: serial runs pull ranged batches,
// parallel runs pull whole shards (stored gzip bytes, decompressed
// client-side).
//
// Every request runs under a context with a per-attempt timeout and is
// retried on transient failures with capped exponential backoff; tune
// Timeout and Retry before the first request. A Client is safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
	stat lpstore.Stat
	ctx  context.Context // base context for Source operations

	// longest is the served library's longest inflated shard, from
	// /v1/shards, once a recycled shard fetch has needed it (0 before).
	longest atomic.Int64

	// BatchPoints is the number of points per ranged /v1/points request
	// (default DefaultBatchPoints).
	BatchPoints int
	// Timeout bounds each request attempt (default DefaultTimeout).
	Timeout time.Duration
	// Retry is the backoff schedule for transient failures.
	Retry RetryPolicy
	// Metrics receives the client's attempt/retry/outcome counters
	// (default obs.Default).
	Metrics *obs.Registry
}

// New returns a client without contacting the server; the first request
// (or Refresh) will. Sources created before Refresh see a zero Stat.
func New(baseURL string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    &http.Client{},
		ctx:   context.Background(),
		Retry: DefaultRetry,
	}
}

// Dial checks the server is reachable and caches its /v1/stat.
func Dial(baseURL string) (*Client, error) {
	return DialContext(context.Background(), baseURL)
}

// DialContext is Dial with a caller context, which also becomes the base
// context for the client's Source streams.
func DialContext(ctx context.Context, baseURL string) (*Client, error) {
	c := New(baseURL)
	c.ctx = ctx
	if err := c.Refresh(ctx); err != nil {
		return nil, fmt.Errorf("lpserve: dialing %s: %w", baseURL, err)
	}
	return c, nil
}

// Refresh re-fetches and caches the server's /v1/stat.
func (c *Client) Refresh(ctx context.Context) error {
	return c.DoJSON(ctx, http.MethodGet, "/v1/stat", nil, &c.stat)
}

// Stat returns the served library's metadata.
func (c *Client) Stat() lpstore.Stat { return c.stat }

// Meta returns the served library's metadata as a livepoint.Meta.
func (c *Client) Meta() livepoint.Meta {
	return livepoint.Meta{
		Benchmark: c.stat.Benchmark,
		Count:     c.stat.Points,
		UnitLen:   c.stat.UnitLen,
		WarmLen:   c.stat.WarmLen,
		Shuffled:  c.stat.Shuffled,
	}
}

// Shards fetches the per-shard listing.
func (c *Client) Shards() ([]ShardStat, error) {
	var out []ShardStat
	if err := c.DoJSON(c.ctx, http.MethodGet, "/v1/shards", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Source returns a fresh source over the remote library in read order.
func (c *Client) Source() livepoint.Source {
	return &remoteSource{c: c, batch: batch{pooled: true}}
}

// SetTransport replaces the client's underlying HTTP transport (nil
// restores the default). This is the hook internal/faultinject uses to
// splice a fault-injecting RoundTripper beneath the retry loop; call it
// before the first request.
func (c *Client) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// CloseIdle closes idle keep-alive connections. Harness code that cycles
// many clients against short-lived servers calls this at teardown so no
// connection goroutines outlive the run.
func (c *Client) CloseIdle() { c.hc.CloseIdleConnections() }

// timeout returns the per-attempt deadline.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// metrics returns the registry client counters land in.
func (c *Client) metrics() *obs.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return obs.Default
}

// cancelBody ties a per-attempt context's cancel to the response body's
// lifetime, so the timeout also bounds body reads.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// do issues one request with per-attempt timeouts and capped-exponential
// retry. A 2xx response is returned with its body open (Close releases the
// attempt's context); any other outcome becomes an error, wrapping a
// *StatusError when the server answered.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, error) {
	reg := c.metrics()
	var lastErr error
	for attempt := 0; ; attempt++ {
		reg.Counter("lpserve_client_attempts_total", "Request attempts, including retries.").Inc()
		rctx, cancel := context.WithTimeout(ctx, c.timeout())
		req, err := http.NewRequestWithContext(rctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return nil, fmt.Errorf("lpserve: %s %s: %w", method, path, err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		switch {
		case err != nil:
			cancel()
			reg.Counter("lpserve_client_transport_errors_total", "Attempts that failed before an HTTP status arrived.").Inc()
			if errors.Is(err, context.DeadlineExceeded) {
				reg.Counter("lpserve_client_timeouts_total", "Attempts that hit the per-attempt timeout.").Inc()
			}
			lastErr = err
		case resp.StatusCode/100 == 2:
			reg.Counter("lpserve_client_responses_total", "Server responses by status code.",
				"code", strconv.Itoa(resp.StatusCode)).Inc()
			resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		default:
			reg.Counter("lpserve_client_responses_total", "Server responses by status code.",
				"code", strconv.Itoa(resp.StatusCode)).Inc()
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			cancel()
			se := &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
			lastErr = se
			if !se.retryable() {
				return nil, fmt.Errorf("lpserve: %s %s: %w", method, path, se)
			}
		}
		if attempt >= c.Retry.Max {
			var se *StatusError
			if !errors.As(lastErr, &se) {
				// Only transport-level failures reach here untyped; tag
				// them so callers can tell an outage from a protocol fault.
				lastErr = &TransportError{Err: lastErr}
			}
			return nil, fmt.Errorf("lpserve: %s %s (after %d attempts): %w", method, path, attempt+1, lastErr)
		}
		reg.Counter("lpserve_client_retries_total", "Attempts re-issued after a transient failure.").Inc()
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("lpserve: %s %s: %w", method, path, ctx.Err())
		case <-time.After(c.Retry.backoff(attempt)):
		}
	}
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	return c.do(ctx, http.MethodGet, path, nil, "")
}

// DoJSON issues a JSON request under the client's timeout and retry
// policy and decodes the JSON response into out (out == nil discards the
// body). Cluster workers drive their coordinator through this.
func (c *Client) DoJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("lpserve: %s %s: encoding request: %w", method, path, err)
		}
	}
	resp, err := c.do(ctx, method, path, body, "application/json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("lpserve: %s %s: decoding response: %w", method, path, &ProtocolError{Err: err})
	}
	return nil
}

func (c *Client) batchPoints() int {
	if c.BatchPoints <= 0 {
		return DefaultBatchPoints
	}
	if c.BatchPoints > MaxBatchPoints {
		// The server clamps responses to MaxBatchPoints; asking for more
		// would desynchronize the batch walk.
		return MaxBatchPoints
	}
	return c.BatchPoints
}

// refetch runs once — one attempt at downloading and verifying a body —
// until it succeeds, under the client's retry policy. The connection-level
// retry in do only covers failures up to the status line; a failure after
// the headers arrived (truncation, corruption, a checksum mismatch) lands
// here, so that one flipped bit in a response body neither kills the
// caller nor, worse, folds silently wrong data. A server verdict is
// terminal (do already retried 5xx); what survives the retries is tagged a
// *ProtocolError if the body was delivered but wrong, a *TransportError
// otherwise. what names the fetch in errors.
func (c *Client) refetch(ctx context.Context, what string, once func() ([][]byte, error)) ([][]byte, error) {
	for attempt := 0; ; attempt++ {
		blobs, err := once()
		if err == nil {
			return blobs, nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			return nil, err
		}
		if attempt >= c.Retry.Max {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				err = &TransportError{Err: err}
			}
			return nil, fmt.Errorf("lpserve: %s (after %d attempts): %w", what, attempt+1, err)
		}
		c.metrics().Counter("lpserve_client_body_retries_total", "Responses refetched after a mid-body failure (truncation, corruption, checksum mismatch).").Inc()
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("lpserve: %s: %w", what, ctx.Err())
		case <-time.After(c.Retry.backoff(attempt)):
		}
	}
}

// FetchBatch pulls the blobs at read-order positions [start, start+count)
// and splits the concatenated DER response in place: the blobs are
// sub-slices of one body buffer the caller owns. The body is verified
// against the server's integrity checksum (PointsCRCHeader) when present,
// and refetched when it fails to verify or split.
func (c *Client) FetchBatch(ctx context.Context, start, count int) ([][]byte, error) {
	return c.fetchBatch(ctx, start, count, &batch{})
}

// batch is one response body as read — a /v1/points batch, or an
// inflated shard — and the blobs split from it. A remote source fetches
// every batch into the same one.
type batch struct {
	body   []byte
	blobs  [][]byte
	pooled bool // body is lpstore's free list's: reserve takes from it, fetchBatch keeps room
}

// reserve empties b.body and gives it a capacity of at least n: when it
// is shorter, a pooled batch takes a buffer from lpstore's free list, any
// other a fresh one; the short one is left to the collector.
func (b *batch) reserve(n int64) {
	switch {
	case int64(cap(b.body)) >= n:
	case b.pooled:
		b.body = lpstore.TakeShardBuf(n)
	default:
		b.body = make([]byte, 0, n)
	}
	b.body = b.body[:0]
}

// fetchBatch is FetchBatch into b's storage, which it grows when the
// response needs more; what b held before is overwritten.
func (c *Client) fetchBatch(ctx context.Context, start, count int, b *batch) ([][]byte, error) {
	what := fmt.Sprintf("batch [%d,%d)", start, start+count)
	return c.refetch(ctx, what, func() ([][]byte, error) {
		resp, err := c.get(ctx, fmt.Sprintf("/v1/points?start=%d&count=%d", start, count))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if h := resp.Header.Get(pointsCountHeader); h != "" && h != strconv.Itoa(count) {
			return nil, fmt.Errorf("lpserve: %s: %w", what,
				&ProtocolError{Err: fmt.Errorf("server sent %s %q for %d points", pointsCountHeader, h, count)})
		}
		room := cap(b.body)
		b.body, err = readBody(resp.Body, resp.ContentLength, b.body)
		if err != nil {
			return nil, fmt.Errorf("lpserve: %s: reading body: %w", what, err)
		}
		if b.pooled && len(b.body) > room {
			// A pooled body serves batch after batch, pass after pass. One
			// that outgrew it moves to a buffer twice its length, paid for
			// by bytes that arrived, so the batches after it — their
			// lengths differ by tens of percent — fit. Grown only to each
			// new longest batch, the buffer would grow again in whichever
			// later pass first met one, a different number of times for
			// every library.
			b.body = append(lpstore.TakeShardBuf(2 * int64(len(b.body)))[:0], b.body...)
		}
		if h := resp.Header.Get(PointsCRCHeader); h != "" {
			want, err := strconv.ParseUint(h, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("lpserve: %s: bad %s header %q: %w",
					what, PointsCRCHeader, h, &ProtocolError{Err: err})
			}
			if got := crc32.ChecksumIEEE(b.body); got != uint32(want) {
				c.metrics().Counter("lpserve_client_integrity_failures_total", "Response bodies whose integrity checksum did not match.").Inc()
				return nil, fmt.Errorf("lpserve: %s: %w", what,
					&ProtocolError{Err: fmt.Errorf("body crc %08x, server sent %08x", got, want)})
			}
		}
		b.blobs = b.blobs[:0]
		rest := b.body
		for i := 0; i < count; i++ {
			var blob []byte
			if blob, rest, err = livepoint.SplitElement(rest); err != nil {
				return nil, fmt.Errorf("lpserve: %s: point %d: %w", what, i, &ProtocolError{Err: err})
			}
			b.blobs = append(b.blobs, blob)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("lpserve: %s: %w", what,
				&ProtocolError{Err: fmt.Errorf("%d bytes after point %d", len(rest), count-1)})
		}
		return b.blobs, nil
	})
}

// bodyChunk is how much of a declared Content-Length readBody believes up
// front: a batch body past it is grown as its bytes arrive.
const bodyChunk = 1 << 20

// readBody reads a response body into buf's storage, growing it with
// growBody when it fills. The buffer is returned, grown or not, even on
// error.
func readBody(r io.Reader, declared int64, buf []byte) ([]byte, error) {
	b := buf[:0]
	for {
		if len(b) == cap(b) {
			b = growBody(b, declared)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// growBody returns full b in a larger buffer. The declared length (-1 when
// unknown) sizes it, but only as a hint: a buffer is at most bodyChunk
// bytes, or twice what has arrived, so a length a short body does not back
// cannot buy the allocation — a declared length is never allocated ahead
// of its bytes. Within that, the size is declared+1 (one spare byte, so
// meeting EOF needs no growth) halved as often as it takes: the sizes a
// body grows through are its length's halvings, so the last growth lands
// on its declared length and the whole read allocates less than twice the
// body.
func growBody(b []byte, declared int64) []byte {
	limit := max(2*int64(len(b)), bodyChunk+1)
	size := limit
	if declared >= int64(len(b)) {
		for size = declared + 1; size > limit; size = (size + 1) / 2 {
		}
	}
	grown := make([]byte, len(b), size)
	copy(grown, b)
	return grown
}

// FetchRange pulls the blobs at read-order positions [start, start+count)
// with no upper bound on count: the range is fetched in server-acceptable
// chunks (MaxBatchPoints, or BatchPoints when set lower). FetchBatch
// callers must keep count within MaxBatchPoints — the server silently
// clamps larger requests, truncating the batch — so ranges that may
// exceed the cap (e.g. cluster range leases) go through here.
func (c *Client) FetchRange(ctx context.Context, start, count int) ([][]byte, error) {
	chunk := c.BatchPoints
	if chunk <= 0 || chunk > MaxBatchPoints {
		chunk = MaxBatchPoints
	}
	blobs := make([][]byte, 0, count)
	for off := 0; off < count; {
		n := count - off
		if n > chunk {
			n = chunk
		}
		part, err := c.FetchBatch(ctx, start+off, n)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, part...)
		off += n
	}
	return blobs, nil
}

// ShardBlobs fetches one shard — its read-order index, then its stored
// gzip bytes (the server does byte copies only) — inflates it locally,
// and returns the shard's point blobs in read order, in a fresh buffer
// the caller owns. The gzip CRC trailer verifies the shard bytes end to
// end; a body that fails to inflate or checksum (connection lost
// mid-stream, bytes damaged en route) is refetched rather than surfaced
// from a single unlucky attempt.
func (c *Client) ShardBlobs(ctx context.Context, sh int) ([][]byte, error) {
	return c.shardBlobs(ctx, sh, &batch{}, 0)
}

// ShardBuf is where ShardBlobsInto puts a shard: a buffer taken from
// lpstore's free list (DESIGN §3.8), which Release gives back. A cluster
// worker fills one lease after lease, a remote shard source one until
// Close. The zero value is ready to use; a ShardBuf serves one goroutine.
type ShardBuf struct{ b batch }

// Release gives the buffer back to the free list: no blob cut from it may
// be read after. Releasing twice, or a ShardBuf never filled, does
// nothing.
func (sb *ShardBuf) Release() {
	lpstore.ReleaseShardBuf(sb.b.body)
	sb.b.body = nil
}

// ShardBlobsInto is ShardBlobs into sb: the blobs are slices of sb's
// buffer, valid until sb's next fill or Release. A buffer sb lacks is
// taken from lpstore's free list, sized for the library's longest shard,
// so one buffer, released and taken again, serves every shard.
func (c *Client) ShardBlobsInto(ctx context.Context, sh int, sb *ShardBuf) ([][]byte, error) {
	sb.b.pooled = true
	return c.shardBlobs(ctx, sh, &sb.b, c.longestShard(ctx))
}

// longestShard returns the served library's longest inflated shard from
// its /v1/shards listing, fetched once per client; 0 while the listing
// cannot be had. It is a size hint, like a shard's index.
func (c *Client) longestShard(ctx context.Context) int64 {
	if n := c.longest.Load(); n > 0 {
		return n
	}
	var shards []ShardStat
	if err := c.DoJSON(ctx, http.MethodGet, "/v1/shards", nil, &shards); err != nil {
		return 0
	}
	var n int64
	for _, sh := range shards {
		n = max(n, sh.UncompressedBytes)
	}
	c.longest.Store(n)
	return n
}

// shardBlobs is ShardBlobs into b's storage, which it replaces when the
// shard, or any shard up to longest bytes, needs more; what b held before
// is overwritten.
func (c *Client) shardBlobs(ctx context.Context, sh int, b *batch, longest int64) ([][]byte, error) {
	return c.refetch(ctx, fmt.Sprintf("shard %d", sh), func() ([][]byte, error) {
		var spans []lpstore.Span
		if err := c.DoJSON(ctx, http.MethodGet, fmt.Sprintf("/v1/shards/%d/index", sh), nil, &spans); err != nil {
			return nil, err
		}
		resp, err := c.get(ctx, fmt.Sprintf("/v1/shards/%d", sh))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		gz, err := livepoint.AcquireGzipReader(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("lpserve: shard %d: %w", sh, err)
		}
		defer livepoint.ReleaseGzipReader(gz)
		// The index says how long the shard inflates to, so the buffer starts
		// at that length — io.ReadAll grows its way there through five times
		// the bytes. Only a hint: a stream of another length is still read to
		// its end and the spans checked against what arrived, and no index
		// or listing makes the hint longer than the body could inflate to.
		hint := longest
		for _, sp := range spans {
			hint = max(hint, sp.Off+int64(sp.Len))
		}
		hint = min(hint, resp.ContentLength*maxInflate)
		b.reserve(max(hint, 0) + bytes.MinRead)
		buf := bytes.NewBuffer(b.body)
		_, err = buf.ReadFrom(gz)
		b.body = buf.Bytes()
		if err != nil {
			return nil, fmt.Errorf("lpserve: shard %d: inflating: %w", sh, err)
		}
		b.blobs = b.blobs[:0]
		for _, sp := range spans {
			if sp.Off < 0 || sp.Off+int64(sp.Len) > int64(len(b.body)) {
				return nil, fmt.Errorf("lpserve: shard %d: %w", sh, &ProtocolError{
					Err: fmt.Errorf("span [%d,%d) exceeds shard length %d", sp.Off, sp.Off+int64(sp.Len), len(b.body))})
			}
			b.blobs = append(b.blobs, b.body[sp.Off:sp.Off+int64(sp.Len)])
		}
		return b.blobs, nil
	})
}

// remoteSource streams the library sequentially through ranged batches and
// exposes shards for parallel pulls. Every batch is fetched into the same
// buffer: a blob is borrowed until the next NextBlob (DESIGN §3.8 rule 1),
// and the next batch is fetched only once the last blob of this one has
// been handed out. The buffer is taken from lpstore's free list at the
// first batch and given back at Close, so the next source — the next pass
// of a benchmark, say — reads into it again. The buffer is pooled: a batch
// that outgrows it leaves it twice that batch's length (fetchBatch).
type remoteSource struct {
	c     *Client
	pos   int // next read-order position to fetch
	batch batch
	next  int // index in batch.blobs of the next blob to hand out
}

func (s *remoteSource) Meta() livepoint.Meta { return s.c.Meta() }

func (s *remoteSource) NextBlob() ([]byte, error) {
	if s.next == len(s.batch.blobs) {
		if s.pos >= s.c.stat.Points {
			return nil, io.EOF
		}
		n := min(s.c.batchPoints(), s.c.stat.Points-s.pos)
		s.next = 0
		if s.batch.body == nil {
			s.batch.body = lpstore.TakeShardBuf(0)
		}
		if _, err := s.c.fetchBatch(s.c.ctx, s.pos, n, &s.batch); err != nil {
			s.batch.blobs = s.batch.blobs[:0]
			return nil, err
		}
		s.pos += n
	}
	b := s.batch.blobs[s.next]
	s.next++
	return b, nil
}

func (s *remoteSource) Close() error {
	lpstore.ReleaseShardBuf(s.batch.body)
	s.batch = batch{pooled: true}
	s.next = 0
	s.c.hc.CloseIdleConnections()
	return nil
}

func (s *remoteSource) NumShards() int { return s.c.stat.Shards }

// OpenShard fetches one shard through the raw-gzip passthrough fast path
// and yields its points in read order.
func (s *remoteSource) OpenShard(sh int) (livepoint.Source, error) {
	ss := &shardSource{meta: s.c.Meta()}
	blobs, err := s.c.ShardBlobsInto(s.c.ctx, sh, &ss.buf)
	if err != nil {
		ss.buf.Release()
		return nil, err
	}
	ss.blobs = blobs
	return ss, nil
}

// shardSource yields a fetched shard's blobs in order, and gives the
// shard's buffer back to lpstore's free list at Close.
type shardSource struct {
	meta  livepoint.Meta
	buf   ShardBuf
	blobs [][]byte
	pos   int
}

func (s *shardSource) Meta() livepoint.Meta { return s.meta }

func (s *shardSource) NextBlob() ([]byte, error) {
	if s.pos >= len(s.blobs) {
		return nil, io.EOF
	}
	b := s.blobs[s.pos]
	s.pos++
	return b, nil
}

func (s *shardSource) Close() error {
	s.blobs = nil
	s.buf.Release()
	return nil
}

// IsStatus reports whether err wraps a *StatusError with the given code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}
