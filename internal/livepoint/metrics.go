package livepoint

import "livepoints/internal/obs"

// Load-path instrumentation (exposed on lpserve's GET /metrics, which
// renders obs.Default).
var mDecodedBytes = obs.Default.Counter("livepoint_decoded_bytes_total", "Encoded live-point bytes decoded into LivePoints.")
