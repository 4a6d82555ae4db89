package livepoint

import "livepoints/internal/obs"

// Load-path instrumentation (exposed on lpserve's GET /metrics, which
// renders obs.Default). The pool series make allocation regressions
// visible in production: a healthy steady-state stream shows hits
// dwarfing misses; a miss rate that tracks the point rate means pooling
// has silently stopped working.
var (
	mPointPoolHits   = obs.Default.Counter("livepoint_pool_hits_total", "Pooled load-path object reuses by pool.", "pool", "livepoint")
	mPointPoolMisses = obs.Default.Counter("livepoint_pool_misses_total", "Pooled load-path object allocations by pool.", "pool", "livepoint")
	mBlobPoolHits    = obs.Default.Counter("livepoint_pool_hits_total", "Pooled load-path object reuses by pool.", "pool", "blob")
	mBlobPoolMisses  = obs.Default.Counter("livepoint_pool_misses_total", "Pooled load-path object allocations by pool.", "pool", "blob")

	mDecodedBytes = obs.Default.Counter("livepoint_decoded_bytes_total", "Encoded live-point bytes decoded into LivePoints.")

	mDecodeAheadDepth = obs.Default.Gauge("livepoint_decode_ahead_depth", "Decoded live-points currently buffered ahead of the simulation workers.")
)
