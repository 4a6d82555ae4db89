package lpcluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
)

// TestWorkerFatalOnGarbageBody: a 2xx response whose JSON body is
// garbage must kill the worker, not park it in an infinite reconnect
// loop. Regression for transient() classifying every non-StatusError —
// including decode errors — as a retriable outage: a systematically
// corrupt coordinator put workers into reconnect-forever, and the only
// observable symptom was a fleet that never made progress.
func TestWorkerFatalOnGarbageBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "\x00\x00 this is not json")
	}))
	defer ts.Close()

	cl := lpserve.New(ts.URL)
	cl.Timeout = 2 * time.Second
	cl.Retry = lpserve.RetryPolicy{Max: 1, Base: time.Millisecond, Cap: 2 * time.Millisecond}
	defer cl.CloseIdle()

	w := NewWorker("garbage", cl)
	w.ReconnectBase = time.Millisecond
	w.ReconnectCap = 2 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker exited nil on a garbage-body coordinator")
		}
		var pe *lpserve.ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("worker death not classified as a protocol error: %v", err)
		}
		if ctx.Err() != nil {
			t.Fatal("worker only exited because the test context expired: reconnect loop")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("worker still reconnecting after 8s: garbage body treated as an outage")
	}
}

// TestWorkerRidesOutOutage: the complementary direction — transport
// failures must NOT be fatal. A worker pointed at a dead address keeps
// backing off until the context ends; it never gives up on an outage.
func TestWorkerRidesOutOutage(t *testing.T) {
	// A listener that is closed immediately: connection refused from a
	// port nothing will reuse within the test.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cl := lpserve.New("http://" + addr)
	cl.Timeout = 100 * time.Millisecond
	cl.Retry = lpserve.RetryPolicy{Max: 0, Base: time.Millisecond, Cap: time.Millisecond}
	defer cl.CloseIdle()

	w := NewWorker("patient", cl)
	w.ReconnectBase = time.Millisecond
	w.ReconnectCap = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("worker gave up on an outage: %v (want to outlast the context)", err)
	}
	if w.Reconnects == 0 {
		t.Fatal("worker never entered the reconnect path")
	}
}

// TestTransientClassification pins the error taxonomy transient()
// implements: outages are worth outwaiting, server verdicts and protocol
// breakage are not.
func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&lpserve.StatusError{Code: 503}, true},
		{&lpserve.StatusError{Code: 409}, false},
		{&lpserve.StatusError{Code: 400}, false},
		{&lpserve.TransportError{Err: errors.New("connection reset")}, true},
		{&lpserve.ProtocolError{Err: errors.New("invalid character")}, false},
		{fmt.Errorf("wrapped: %w", &lpserve.ProtocolError{Err: errors.New("bad der")}), false},
		{io.ErrUnexpectedEOF, true},
		{io.EOF, true},
		{context.DeadlineExceeded, true},
		{&net.OpError{Op: "dial", Err: errors.New("refused")}, true},
		{errors.New("anything unclassified"), false},
	}
	for _, tc := range cases {
		if got := transient(tc.err); got != tc.want {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestWorkerReconnectBackoffOverride: the tunable schedule exists so
// soaks are not sleep-dominated; zero values must keep the production
// defaults.
func TestWorkerReconnectBackoffOverride(t *testing.T) {
	if reconnectBase < 100*time.Millisecond {
		t.Fatalf("production reconnectBase %v suspiciously small", reconnectBase)
	}
	// A worker with a shrunken schedule rides out many outage rounds in
	// well under one production backoff step.
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	addr := l.Addr().String()
	l.Close()
	cl := lpserve.New("http://" + addr)
	cl.Timeout = 50 * time.Millisecond
	cl.Retry = lpserve.RetryPolicy{Max: 0, Base: time.Millisecond, Cap: time.Millisecond}
	defer cl.CloseIdle()
	w := NewWorker("fast", cl)
	w.ReconnectBase = time.Millisecond
	w.ReconnectCap = 2 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	w.Run(ctx)
	if w.Reconnects == 0 {
		t.Fatal("no reconnect attempts despite a dead coordinator")
	}
}

// TestRunSpecRefusesUnbuildableMachine: an override that describes a
// machine no worker can build (the RUU is allocated per slot) is refused
// where the run is defined, and again by a worker that is handed such a
// spec by a coordinator that did not check — an error naming the field in
// both places, not a dead worker process.
func TestRunSpecRefusesUnbuildableMachine(t *testing.T) {
	spec := RunSpec{Mode: ModeMatched, RUU: 1 << 40}
	st, err := lpstore.Open(testLibrary(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewCoordinator(st, spec, Options{}); err == nil || !strings.Contains(err.Error(), "RUUSize") {
		t.Fatalf("NewCoordinator accepted ruu=1<<40 (err %v)", err)
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RunState{Spec: spec, Phase: PhaseRunning})
	}))
	defer ts.Close()
	cl := lpserve.New(ts.URL)
	defer cl.CloseIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := NewWorker("careful", cl).Run(ctx); err == nil || !strings.Contains(err.Error(), "RUUSize") {
		t.Fatalf("worker did not refuse ruu=1<<40 (err %v)", err)
	}
}

// bigShards is the test library's points in 25-point shards, so that a
// shard outweighs what a lease allocates whatever its storage (the HTTP
// exchanges, each point's own simulation), with each shard's blobs in read
// order and the CPIs a fresh SimBlobs gives them under the default run:
// written and simulated once for the test binary.
var bigShards struct {
	once  sync.Once
	path  string
	blobs [][][]byte
	cpis  [][]float64
	err   error
}

// bigShardServer serves bigShards' library and returns a client of it and
// its shard listing.
func bigShardServer(t *testing.T) (*lpserve.Client, []lpserve.ShardStat) {
	t.Helper()
	lib := testLibrary(t)
	bigShards.once.Do(func() {
		bigShards.err = func() error {
			st, err := lpstore.Open(lib)
			if err != nil {
				return err
			}
			blobs, err := st.Blobs(0, st.Count())
			st.Close()
			if err != nil {
				return err
			}
			bigShards.path = filepath.Join(filepath.Dir(lib), "big-shards.lplib")
			if _, err := lpstore.Write(bigShards.path, st.Meta(), blobs, lpstore.WriteOpts{ShardPoints: 25}); err != nil {
				return err
			}
			if st, err = lpstore.Open(bigShards.path); err != nil {
				return err
			}
			defer st.Close()
			cfgs, err := RunSpec{}.Configs()
			if err != nil {
				return err
			}
			for s := 0; s < st.NumShards(); s++ {
				data, err := st.DecompressShard(s)
				if err != nil {
					return err
				}
				spans, err := st.ShardReadOrder(s)
				if err != nil {
					return err
				}
				var shard [][]byte
				for _, sp := range spans {
					shard = append(shard, data[sp.Off:sp.Off+int64(sp.Len)])
				}
				cpis, _, err := livepoint.SimBlobs(shard, cfgs[0])
				if err != nil {
					return err
				}
				bigShards.blobs = append(bigShards.blobs, shard)
				bigShards.cpis = append(bigShards.cpis, cpis)
			}
			return nil
		}()
	})
	if bigShards.err != nil {
		t.Fatal(bigShards.err)
	}
	st, err := lpstore.Open(bigShards.path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(lpserve.NewServer(st).Handler())
	t.Cleanup(ts.Close)
	cl, err := lpserve.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.CloseIdle)
	var shards []lpserve.ShardStat
	if err := cl.DoJSON(context.Background(), http.MethodGet, "/v1/shards", nil, &shards); err != nil {
		t.Fatal(err)
	}
	return cl, shards
}

// shardLease simulates shard sh on w as a lease and checks its CPIs are
// bigShards', bit for bit.
func shardLease(w *Worker, sh lpserve.ShardStat) error {
	res, err := w.simulate(context.Background(), &Lease{ID: uint64(sh.ID + 1), Points: sh.Points,
		Coverage: Coverage{Kind: LeaseShard, Shard: sh.ID, Count: sh.Points}})
	if err != nil {
		return fmt.Errorf("worker %s, shard %d: %w", w.ID, sh.ID, err)
	}
	want := bigShards.cpis[sh.ID]
	if len(res.CPIs) != len(want) {
		return fmt.Errorf("worker %s, shard %d: %d CPIs, want %d", w.ID, sh.ID, len(res.CPIs), len(want))
	}
	for j := range want {
		if math.Float64bits(res.CPIs[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("worker %s, shard %d, point %d: CPI %v, a fresh SimBlobs gives %v", w.ID, sh.ID, j, res.CPIs[j], want[j])
		}
	}
	return nil
}

// TestWorkerReusesLeaseStorage: a worker simulates lease after lease —
// shards of different sizes, a larger one after a smaller, then read-order
// ranges, as a run under an active stopping rule leases them — in one
// body off lpstore's free list and on one set of arenas. Every lease
// posts the CPIs a fresh SimBlobs gives its points, bit for bit, and once
// the first lease has taken the buffer and built the arenas, no lease
// allocates anything near a shard or a batch.
func TestWorkerReusesLeaseStorage(t *testing.T) {
	cl, shards := bigShardServer(t)
	cfgs, err := RunSpec{}.Configs()
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int64]bool)
	smallest := shards[0].UncompressedBytes
	for _, sh := range shards {
		sizes[sh.UncompressedBytes] = true
		smallest = min(smallest, sh.UncompressedBytes)
	}
	if len(sizes) < 3 || shards[1].UncompressedBytes <= shards[0].UncompressedBytes {
		t.Fatalf("shards of %d sizes, the second %d bytes after %d: the test needs three, growing at first",
			len(sizes), shards[1].UncompressedBytes, shards[0].UncompressedBytes)
	}

	w := NewWorker("reuser", cl)
	w.cfgs = cfgs
	for i, sh := range shards {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := shardLease(w, sh)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		alloc := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("lease %d: shard %d, %d bytes inflated, %d points: %d bytes allocated", i, sh.ID, sh.UncompressedBytes, sh.Points, alloc)
		if i > 0 && alloc > uint64(smallest)/2 {
			t.Errorf("lease %d (shard %d, %d bytes) allocated %d bytes, want under half the smallest shard (%d)",
				i, sh.ID, sh.UncompressedBytes, alloc, smallest/2)
		}
	}

	st, err := lpstore.Open(bigShards.path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The server inflates a shard at the first batch that touches it; a
	// batch over the whole library first leaves the leases only the
	// worker's allocation.
	if _, err := cl.FetchBatch(context.Background(), 0, st.Count()); err != nil {
		t.Fatal(err)
	}
	for i, r := range []Coverage{{Start: 0, Count: 20}, {Start: 20, Count: 25}, {Start: 45, Count: 25}, {Start: 70, Count: st.Count() - 70}} {
		blobs, err := st.Blobs(r.Start, r.Count)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := livepoint.SimBlobs(blobs, cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		var body int
		for _, b := range blobs {
			body += len(b)
		}
		r.Kind = LeaseRange
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := w.simulate(context.Background(), &Lease{ID: uint64(100 + i), Points: r.Count, Coverage: r})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(res.CPIs[j]) != math.Float64bits(want[j]) {
				t.Fatalf("range [%d,%d), point %d: CPI %v, a fresh SimBlobs gives %v", r.Start, r.Start+r.Count, j, res.CPIs[j], want[j])
			}
		}
		alloc := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("range lease %d: [%d,%d), a %d-byte batch: %d bytes allocated", i, r.Start, r.Start+r.Count, body, alloc)
		if i > 0 && alloc > uint64(body)/2 {
			t.Errorf("range lease %d ([%d,%d), a %d-byte batch) allocated %d bytes, want under half the batch",
				i, r.Start, r.Start+r.Count, body, alloc)
		}
	}
}

// TestShardLeaseAllocatesLittle: once a worker has leased every shard, a
// shard lease allocates only its two HTTP exchanges' garbage, under 32 KB
// where a shard is some 800 KB: the shard inflates through a decoder off
// the inflate package's free list, and its index decodes into the spans
// the body kept from the last lease. The first pass takes the body and
// grows the arenas to the largest point.
func TestShardLeaseAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector, pooled HTTP buffers miss at random")
	}
	cl, shards := bigShardServer(t)
	cfgs, err := RunSpec{}.Configs()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker("frugal", cl)
	w.cfgs = cfgs
	for _, sh := range shards {
		if err := shardLease(w, sh); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range shards {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := shardLease(w, sh)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		alloc := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("shard %d, %d bytes inflated: %d bytes allocated", sh.ID, sh.UncompressedBytes, alloc)
		if alloc >= 32<<10 {
			t.Errorf("shard %d's lease allocated %d bytes, want under 32 KB", sh.ID, alloc)
		}
	}
}

// TestWorkerLeaseReleaseWhileShardSourceWalks: a buffer passes between
// readers only through lpstore's free list, and only once its reader is
// done with it. Two workers on one client lease every shard between them,
// each lease giving its buffer back and taking one again, while a shard
// body filled before them is walked a blob at a time and others are
// filled five at a time — more than the free list holds, so they take
// whatever a lease has given back — checked and released, without pause:
// every blob a body yields is its shard's, and every lease posts the CPIs
// SimBlobs gives its shard. Released twice, a body gives its buffer back
// once.
func TestWorkerLeaseReleaseWhileShardSourceWalks(t *testing.T) {
	cl, shards := bigShardServer(t)
	cfgs, err := RunSpec{}.Configs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	walk := func(blobs [][]byte, s int, pause time.Duration) error {
		if len(blobs) != len(bigShards.blobs[s]) {
			return fmt.Errorf("shard %d: the body holds %d blobs, want %d", s, len(blobs), len(bigShards.blobs[s]))
		}
		for j, b := range blobs {
			if !bytes.Equal(b, bigShards.blobs[s][j]) {
				return fmt.Errorf("shard %d: blob %d changed under its body", s, j)
			}
			time.Sleep(pause)
		}
		return nil
	}
	var walked lpserve.Body
	walkedBlobs, err := cl.ShardBlobsInto(ctx, 0, &walked)
	if err != nil {
		t.Fatal(err)
	}
	var leases, churn sync.WaitGroup
	for k := 0; k < 2; k++ {
		leases.Add(1)
		go func() {
			defer leases.Done()
			w := NewWorker(fmt.Sprintf("lessee-%d", k), cl)
			w.cfgs = cfgs
			for i := k; i < len(shards); i += 2 {
				if err := shardLease(w, shards[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			bodies := make([]lpserve.Body, 5)
			filled := make([][][]byte, len(bodies))
			for i := range bodies {
				var err error
				if filled[i], err = cl.ShardBlobsInto(ctx, i%len(shards), &bodies[i]); err != nil {
					t.Error(err)
					return
				}
			}
			for i := range bodies {
				if err := walk(filled[i], i%len(shards), 0); err != nil {
					t.Error(err)
				}
				bodies[i].Release()
				bodies[i].Release()
			}
		}
	}()
	if err := walk(walkedBlobs, 0, 5*time.Millisecond); err != nil { // mid-walk while leases come and go
		t.Error(err)
	}
	leases.Wait()
	close(done)
	churn.Wait()
	walked.Release()
	walked.Release()

	// A buffer the list held twice would be handed out twice.
	held := make(map[*byte]bool)
	for i := 0; i < 5; i++ { // one more than the list holds
		buf := lpstore.TakeShardBuf(1)
		p := &buf[:1][0]
		if held[p] {
			t.Fatal("the free list handed out one buffer twice")
		}
		held[p] = true
		defer lpstore.ReleaseShardBuf(buf)
	}
}
