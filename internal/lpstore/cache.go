package lpstore

import (
	"container/list"
	"sync"

	"livepoints/internal/obs"
)

// shardCacheBudget bounds the inflated shard bytes one store keeps for
// random access, and how many shards one of its sources holds at once.
// 256 MiB holds a whole syn.gcc library at nominal length (~104 MB): a
// 64-point batch of an index-reshuffled store touches nearly every shard,
// so anything that cannot hold the library inflates most of it again for
// every batch.
const shardCacheBudget = 256 << 20

// Shared-cache instrumentation (exposed on lpserve's GET /metrics, which
// renders obs.Default). A serving store that keeps missing is either
// larger than the budget or being read by more stores than it should be.
var (
	mShardCacheHits      = obs.Default.Counter("lpstore_shard_cache_hits_total", "Shard lookups served from a store's shared inflated-shard cache, including waits on an inflate already under way.")
	mShardCacheMisses    = obs.Default.Counter("lpstore_shard_cache_misses_total", "Shards inflated and verified into a store's shared inflated-shard cache.")
	mShardCacheEvictions = obs.Default.Counter("lpstore_shard_cache_evictions_total", "Inflated shards dropped from a store's shared cache to stay within its byte budget.")
	mShardCacheBytes     = obs.Default.Gauge("lpstore_shard_cache_bytes", "Inflated shard bytes held by the shared caches of open stores.")
)

// sharedShards is a store's cache of verified, inflated shards, shared by
// every random-access reader (Blobs, so PointBlob and lpserve's
// /v1/points). It evicts least recently used shards past its byte budget,
// keeping at least the newest even when one shard alone exceeds it.
//
// What it hands out is shared and must not be written. It stays valid
// for as long as a reader holds it: an evicted shard's memory goes to the
// collector, never back to shardBufs, so a handler still writing a batch
// is never overwritten under it.
type sharedShards struct {
	mu     sync.Mutex
	budget int64 // shardCacheBudget; tests lower it
	bytes  int64
	m      map[int]*cachedShard
	lru    list.List // of *cachedShard, most recent first; inflates under way are not on it
	closed bool
}

// cachedShard is one shard in the cache, or being inflated into it.
type cachedShard struct {
	shard int
	data  []byte
	err   error
	ready chan struct{} // closed once data or err is set
	elem  *list.Element
}

// get returns shard s inflated and verified. Concurrent misses on one
// shard inflate it once; the others wait for that result. A failed
// inflate is returned to everyone waiting on it and never cached, so the
// next call tries, and fails, again.
func (c *sharedShards) get(st *Store, s int) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.m[s]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		mShardCacheHits.Inc()
		<-e.ready
		return e.data, e.err
	}
	if c.m == nil {
		c.m = make(map[int]*cachedShard)
	}
	e := &cachedShard{shard: s, ready: make(chan struct{})}
	c.m[s] = e
	c.mu.Unlock()

	mShardCacheMisses.Inc()
	e.data, e.err = st.inflateShard(s, nil)

	c.mu.Lock()
	if e.err != nil || c.closed {
		if c.m[s] == e {
			delete(c.m, s)
		}
	} else {
		e.elem = c.lru.PushFront(e)
		c.bytes += int64(len(e.data))
		mShardCacheBytes.Add(float64(len(e.data)))
		for c.bytes > c.budget && c.lru.Len() > 1 {
			old := c.lru.Remove(c.lru.Back()).(*cachedShard)
			delete(c.m, old.shard)
			c.bytes -= int64(len(old.data))
			mShardCacheBytes.Add(-float64(len(old.data)))
			mShardCacheEvictions.Inc()
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.data, e.err
}

// close drops every cached shard; nothing is cached after it.
func (c *sharedShards) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	mShardCacheBytes.Add(-float64(c.bytes))
	c.bytes = 0
	c.m = nil
	c.lru.Init()
}
