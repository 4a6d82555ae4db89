package lpcluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
