package livepoint

import "sync"

// Pools for the load path's fixed-cost objects. The paper's load-time
// claim (§5, Table 2) only holds if loading a point costs decompression
// and decode work, not allocator and GC work; everything here exists to
// keep the steady-state per-point heap traffic at zero.

var livePoints sync.Pool

// acquireLivePoint returns a LivePoint whose backing storage carries over
// from earlier decodes, so DecodeInto into it is allocation-free once the
// pool is warm.
func acquireLivePoint() *LivePoint {
	if v := livePoints.Get(); v != nil {
		mPointPoolHits.Inc()
		return v.(*LivePoint)
	}
	mPointPoolMisses.Inc()
	return &LivePoint{}
}

func releaseLivePoint(lp *LivePoint) {
	if lp != nil {
		livePoints.Put(lp)
	}
}

// blobBufs holds *[]byte (a pointer, so Put/Get never box a slice header
// on the heap). Undersized buffers are regrown in place, converging the
// pool on the library's largest blob.
var blobBufs sync.Pool

// acquireBlobBuf returns a buffer of length n, reusing pooled capacity.
func acquireBlobBuf(n int) *[]byte {
	if v := blobBufs.Get(); v != nil {
		pb := v.(*[]byte)
		if cap(*pb) >= n {
			mBlobPoolHits.Inc()
			*pb = (*pb)[:n]
			return pb
		}
		mBlobPoolMisses.Inc()
		*pb = make([]byte, n)
		return pb
	}
	mBlobPoolMisses.Inc()
	b := make([]byte, n)
	return &b
}

func releaseBlobBuf(pb *[]byte) {
	if pb != nil {
		blobBufs.Put(pb)
	}
}
