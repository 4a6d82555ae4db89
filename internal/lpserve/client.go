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
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
)

// DefaultBatchPoints is the sequential client's ranged-fetch size.
const DefaultBatchPoints = 64

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

// Source returns a fresh source over the remote library in read order.
func (c *Client) Source() livepoint.Source {
	return &remoteSource{c: c}
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
// and refetched when it fails to verify or split. count must be within
// MaxBatchPoints: the server answers a larger request with fewer points,
// a *ProtocolError here.
func (c *Client) FetchBatch(ctx context.Context, start, count int) ([][]byte, error) {
	return c.fetchBatch(ctx, start, count, &Body{})
}

// FetchBatchInto is FetchBatch into b: the blobs are slices of b's
// buffer, valid until b's next fill or Release.
func (c *Client) FetchBatchInto(ctx context.Context, start, count int, b *Body) ([][]byte, error) {
	b.pooled = true
	return c.fetchBatch(ctx, start, count, b)
}

// ShardBlobs fetches one shard — its read-order index, then its stored
// gzip bytes (the server does byte copies only) — inflates it locally,
// and returns the shard's point blobs in read order, in a fresh buffer
// the caller owns. The gzip CRC trailer verifies the shard bytes end to
// end; a body that fails to inflate or checksum (connection lost
// mid-stream, bytes damaged en route) is refetched rather than surfaced
// from a single unlucky attempt.
func (c *Client) ShardBlobs(ctx context.Context, sh int) ([][]byte, error) {
	return c.shardBlobs(ctx, sh, &Body{})
}

// ShardBlobsInto is ShardBlobs into b: the blobs are slices of b's
// buffer, valid until b's next fill or Release.
func (c *Client) ShardBlobsInto(ctx context.Context, sh int, b *Body) ([][]byte, error) {
	b.pooled = true
	return c.shardBlobs(ctx, sh, b)
}

// Body is one response body the client splits into blobs — a /v1/points
// batch as it arrived, or a shard as it inflates — and the blobs split
// from it. Filled by FetchBatchInto or ShardBlobsInto, its buffer comes
// from lpstore's free list (DESIGN §3.8) and Release gives it back: a
// remote source reads batch after batch into one Body, a shard source
// its shard until Close, a cluster worker lease after lease. The zero
// value is ready to use; a Body serves one goroutine.
type Body struct {
	buf    []byte
	blobs  [][]byte
	pooled bool // buf is the free list's: read takes it there and keeps room
}

// Release gives the buffer back to lpstore's free list: no blob cut from
// it may be read after. Releasing twice, or a Body never filled, does
// nothing.
func (b *Body) Release() {
	lpstore.ReleaseShardBuf(b.buf)
	b.buf, b.blobs = nil, nil
}

// bodyChunk is how much of a declared length read believes up front: a
// body past it is grown as its bytes arrive.
const bodyChunk = 1 << 20

// read reads r to its end into b's buffer, overwriting what it held and
// growing it with growBody when it fills; the buffer is kept, grown or
// not, even on error. declared is the length the server said the body
// has (-1 when it said nothing). A pooled body starts from the free
// list's newest buffer, and one that outgrew its buffer ends in one at
// least twice its length, paid for by bytes that arrived: a pooled body
// serves body after body, and the bodies after it — their lengths differ
// by tens of percent — then fit. Grown only to each new longest body, the
// buffer would grow again in whichever later pass first met one, a
// different number of times for every library.
func (b *Body) read(r io.Reader, declared int64) error {
	if b.pooled && b.buf == nil {
		b.buf = lpstore.TakeShardBuf(0)
	}
	buf, grew := b.buf[:0], false
	for {
		if len(buf) == cap(buf) {
			buf, grew = growBody(buf, declared), true
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.buf = buf
			return err
		}
	}
	if b.pooled && grew && cap(buf) < 2*len(buf) {
		buf = append(lpstore.TakeShardBuf(2 * int64(len(buf)))[:0], buf...)
	}
	b.buf = buf
	return nil
}

// growBody returns full b in a larger buffer. The declared length sizes
// it, but only as a hint: a buffer is at most bodyChunk bytes, or twice
// what has arrived, so a length a short body does not back cannot buy
// the allocation — a declared length is never allocated ahead of its
// bytes. Within that, the size is declared+1 (one spare byte, so meeting
// EOF needs no growth) halved as often as it takes: the sizes a body
// grows through are its length's halvings, so the last growth lands on
// its declared length and the whole read allocates less than twice the
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

// fetchBatch is FetchBatch into b; what b held before is overwritten.
func (c *Client) fetchBatch(ctx context.Context, start, count int, b *Body) ([][]byte, error) {
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
		if err := b.read(resp.Body, resp.ContentLength); err != nil {
			return nil, fmt.Errorf("lpserve: %s: reading body: %w", what, err)
		}
		if h := resp.Header.Get(PointsCRCHeader); h != "" {
			want, err := strconv.ParseUint(h, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("lpserve: %s: bad %s header %q: %w",
					what, PointsCRCHeader, h, &ProtocolError{Err: err})
			}
			if got := crc32.ChecksumIEEE(b.buf); got != uint32(want) {
				c.metrics().Counter("lpserve_client_integrity_failures_total", "Response bodies whose integrity checksum did not match.").Inc()
				return nil, fmt.Errorf("lpserve: %s: %w", what,
					&ProtocolError{Err: fmt.Errorf("body crc %08x, server sent %08x", got, want)})
			}
		}
		b.blobs = b.blobs[:0]
		rest := b.buf
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

// shardBlobs is ShardBlobs into b; what b held before is overwritten.
// The shard's index and its length header are hints alike: a stream of
// another length is still read to its end, under read's rule, and the
// spans are checked against what arrived.
func (c *Client) shardBlobs(ctx context.Context, sh int, b *Body) ([][]byte, error) {
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
		declared, err := strconv.ParseInt(resp.Header.Get(shardLengthHeader), 10, 64)
		if err != nil {
			declared = -1
		}
		if err := b.read(gz, declared); err != nil {
			return nil, fmt.Errorf("lpserve: shard %d: inflating: %w", sh, err)
		}
		b.blobs = b.blobs[:0]
		for _, sp := range spans {
			if sp.Off < 0 || sp.Off+int64(sp.Len) > int64(len(b.buf)) {
				return nil, fmt.Errorf("lpserve: shard %d: %w", sh, &ProtocolError{
					Err: fmt.Errorf("span [%d,%d) exceeds shard length %d", sp.Off, sp.Off+int64(sp.Len), len(b.buf))})
			}
			b.blobs = append(b.blobs, b.buf[sp.Off:sp.Off+int64(sp.Len)])
		}
		return b.blobs, nil
	})
}

// remoteSource streams the library sequentially through ranged batches and
// exposes shards for parallel pulls. Every batch is fetched into the same
// pooled Body: a blob is borrowed until the next NextBlob (DESIGN §3.8
// rule 1), and the next batch is fetched only once the last blob of this
// one has been handed out. Close gives the buffer back, so the next
// source — the next pass of a benchmark, say — reads into it again.
type remoteSource struct {
	c    *Client
	pos  int // next read-order position to fetch
	body Body
	next int // index in body.blobs of the next blob to hand out
}

func (s *remoteSource) Meta() livepoint.Meta { return s.c.Meta() }

func (s *remoteSource) NextBlob() ([]byte, error) {
	if s.next == len(s.body.blobs) {
		if s.pos >= s.c.stat.Points {
			return nil, io.EOF
		}
		n := min(s.c.batchPoints(), s.c.stat.Points-s.pos)
		s.next = 0
		if _, err := s.c.FetchBatchInto(s.c.ctx, s.pos, n, &s.body); err != nil {
			s.body.blobs = s.body.blobs[:0]
			return nil, err
		}
		s.pos += n
	}
	b := s.body.blobs[s.next]
	s.next++
	return b, nil
}

func (s *remoteSource) Close() error {
	s.body.Release()
	s.next = 0
	s.c.hc.CloseIdleConnections()
	return nil
}

func (s *remoteSource) NumShards() int { return s.c.stat.Shards }

// OpenShard fetches one shard through the raw-gzip passthrough fast path
// and yields its points in read order.
func (s *remoteSource) OpenShard(sh int) (livepoint.Source, error) {
	ss := &shardSource{meta: s.c.Meta()}
	blobs, err := s.c.ShardBlobsInto(s.c.ctx, sh, &ss.body)
	if err != nil {
		ss.body.Release()
		return nil, err
	}
	ss.blobs = blobs
	return ss, nil
}

// shardSource yields a fetched shard's blobs in order, and gives the
// shard's buffer back to lpstore's free list at Close.
type shardSource struct {
	meta  livepoint.Meta
	body  Body
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
	s.body.Release()
	return nil
}

// IsStatus reports whether err wraps a *StatusError with the given code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}
