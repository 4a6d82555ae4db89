package lpcluster

import (
	"encoding/json"
	"errors"
	"net/http"

	"livepoints/internal/lpserve"
)

// Mount registers the cluster endpoints on an lpserve server, beside the
// store's streaming endpoints:
//
//	POST /v1/leases   acquire the next lease (or wait/done verdict)
//	POST /v1/results  post a completed lease's partial statistics
//	GET  /v1/run      run spec + progress + final fleet-wide result
//
// Workers fetch a lease's bytes in one request to the server's existing
// endpoints, GET /v1/shards/{id} for a shard and GET /v1/points for a
// range, so one listener serves both the library and the coordination
// protocol.
func (c *Coordinator) Mount(s *lpserve.Server) {
	s.Extend("POST /v1/leases", c.handleLeases)
	s.Extend("POST /v1/results", c.handleResults)
	s.Extend("GET /v1/run", c.handleRun)
}

// writeJSON marshals before touching the ResponseWriter: encoding
// straight into it commits a 200 status first, so a marshal failure
// (e.g. a non-finite float) would surface to clients as an empty body
// and a bare decode EOF rather than an explanation.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// Request bodies are outside input and are read through a bound. A lease
// request holds a worker's name; a result holds that, ids and counters —
// maxEnvelopeBytes is generous for both — plus its CPIs. No lease covers
// more than lpserve.MaxBatchPoints points (newLeaseTable), a matched run
// posts two CPIs a point, and a float64 is at most 24 bytes of JSON
// ("-2.2250738585072014e-308") and a comma: 2 × 25 × 4096 = 204,800 bytes.
const (
	maxEnvelopeBytes = 4 << 10
	maxResultBytes   = 2*25*lpserve.MaxBatchPoints + maxEnvelopeBytes
)

// readJSON decodes a request body of at most limit bytes into v, or answers
// 400 and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	}
	return err == nil
}

func (c *Coordinator) handleLeases(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if readJSON(w, r, maxEnvelopeBytes, &req) {
		writeJSON(w, c.Acquire(req.Worker))
	}
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	var res Result
	if !readJSON(w, r, maxResultBytes, &res) {
		return
	}
	resp, err := c.Result(&res)
	switch {
	case errors.Is(err, ErrLeaseGone):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrDuplicate):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrJournal):
		// The fold was refused because the write-ahead append failed;
		// 503 is retryable, so the worker re-posts rather than discards.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, resp)
	}
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.State())
}
