package lpstore

import (
	"container/list"
	"sync"

	"livepoints/internal/obs"
)

// shardCacheBudget bounds the inflated shard bytes one store keeps: past
// it, shards no reader holds are evicted. 256 MiB holds a whole syn.gcc
// library at nominal length (~104 MB): a 64-point batch of an
// index-reshuffled store touches nearly every shard, so anything that
// cannot hold the library inflates most of it again for every batch.
const shardCacheBudget = 256 << 20

// Shard table instrumentation (exposed on lpserve's GET /metrics, which
// renders obs.Default). Every reader of a store looks its shards up in the
// table: a serving store that keeps missing is either larger than the
// budget or being read by more stores than it should be.
var (
	mShardCacheHits      = obs.Default.Counter("lpstore_shard_cache_hits_total", "Shard lookups served from a store's table of inflated shards, including waits on an inflate already under way.")
	mShardCacheMisses    = obs.Default.Counter("lpstore_shard_cache_misses_total", "Shards inflated and verified into a store's table of inflated shards.")
	mShardCacheEvictions = obs.Default.Counter("lpstore_shard_cache_evictions_total", "Inflated shards no reader held, dropped from a store's table to stay within its byte budget.")
	mShardCacheBytes     = obs.Default.Gauge("lpstore_shard_cache_bytes", "Inflated shard bytes held by the tables of open stores.")
)

// shardTable is a store's one table of verified, inflated shards. Every
// reader the store hands out — Blobs (so PointBlob and lpserve's
// /v1/points), its sources and their shard sources — acquires a shard here
// and releases it when it has finished with it, and this file alone
// decides where a shard's buffer goes then:
//
//   - a shard someone holds stays, and is never written again;
//   - a shard whose reader will not read it again (a source past the
//     shard's last read position, a shard source at its end or Close)
//     goes, if no one else holds it, and its buffer back to shardBufs for
//     the next inflate: a creation-order walk holds one shard in one
//     recycled buffer at a time;
//   - other shards no one holds stay within the byte budget, least
//     recently used evicted first (the newest stays even when it alone
//     exceeds the budget), and eviction recycles the buffer too;
//   - a shard Blobs ever handed out belongs to the collector: evicted or
//     dropped at Close it is never recycled, so Blobs' slices stay valid.
//
// What a reader gets is shared and must not be written.
type shardTable struct {
	mu     sync.Mutex
	budget int64 // shardCacheBudget; tests lower it
	bytes  int64
	m      map[int]*tableShard // nil once closed
	lru    list.List           // of the *tableShard no one holds, least recent first
}

// tableShard is one shard in the table, or being inflated into it.
type tableShard struct {
	shard int
	data  []byte
	err   error
	ready chan struct{} // closed once data or err is set
	refs  int           // on the lru, at elem, while 0
	blobs bool          // handed out by Blobs: the collector's, never recycled
	elem  *list.Element
}

// acquire returns shard s inflated and verified, and counts a reference
// the caller gives back with release. blobs marks it as handed out by
// Blobs. Concurrent misses on one shard inflate it once; the others wait
// for that result. A failed inflate is returned to everyone waiting on it,
// holds no reference and is never cached, so the next call tries, and
// fails, again.
func (t *shardTable) acquire(st *Store, s int, blobs bool) (*tableShard, error) {
	t.mu.Lock()
	if e, ok := t.m[s]; ok {
		if e.refs == 0 {
			t.lru.Remove(e.elem)
			e.elem = nil
		}
		e.refs++
		e.blobs = e.blobs || blobs
		t.mu.Unlock()
		mShardCacheHits.Inc()
		<-e.ready
		return e, e.err
	}
	e := &tableShard{shard: s, refs: 1, blobs: blobs, ready: make(chan struct{})}
	if t.m != nil {
		t.m[s] = e
	}
	t.mu.Unlock()

	mShardCacheMisses.Inc()
	var buf []byte
	if !blobs {
		buf = TakeShardBuf(st.longestShard())
	}
	e.data, e.err = st.inflateShard(s, buf)

	t.mu.Lock()
	if t.m[s] == e {
		if e.err != nil {
			delete(t.m, s)
		} else {
			t.bytes += int64(len(e.data))
			mShardCacheBytes.Add(float64(len(e.data)))
		}
	}
	t.mu.Unlock()
	close(e.ready)
	if e.err != nil {
		ReleaseShardBuf(buf)
		return nil, e.err
	}
	return e, nil
}

// release drops a reference acquire counted. done says the caller will not
// read the shard again.
func (t *shardTable) release(e *tableShard, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	switch {
	case t.m[e.shard] != e: // dropped by Close while held
		if !e.blobs {
			ReleaseShardBuf(e.data)
		}
	case done && !e.blobs:
		t.drop(e)
	default:
		e.elem = t.lru.PushBack(e)
		for t.bytes > t.budget && t.lru.Len() > 1 {
			t.drop(t.lru.Remove(t.lru.Front()).(*tableShard))
			mShardCacheEvictions.Inc()
		}
	}
}

// drop takes a shard no one holds out of the table and recycles its buffer
// unless Blobs handed it out.
func (t *shardTable) drop(e *tableShard) {
	delete(t.m, e.shard)
	t.bytes -= int64(len(e.data))
	mShardCacheBytes.Add(-float64(len(e.data)))
	if !e.blobs {
		ReleaseShardBuf(e.data)
	}
}

// close empties the table; nothing is cached after it. A shard still held
// stays valid for its holder and is recycled when released.
func (t *shardTable) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for el := t.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*tableShard); !e.blobs {
			ReleaseShardBuf(e.data)
		}
	}
	mShardCacheBytes.Add(-float64(t.bytes))
	t.bytes = 0
	t.m = nil
	t.lru.Init()
}

// shardBufs is the process's one free list of load buffers: behind the
// table's shards, and, through TakeShardBuf and ReleaseShardBuf, behind
// lpserve's remote readers (a remote source's batch body, its shard
// sources, a cluster worker's shard lease). A shard is megabytes, and a
// fresh buffer for each is zeroing, page faults and collector cycles that
// a run repeats for every shard it reads and that cost a different amount
// every time; recycled, a run's load stage touches the same warm memory
// shard after shard and run after run, the last buffer released being the
// next taken. The list is process-wide, so the buffers outlive the store
// (RunFile opens a new one every pass) and the client; it is bounded and,
// unlike a sync.Pool, survives collections: what it pins is at most
// maxFreeShardBufs buffers, each of a size some reader needed. Buffers
// the public DecompressShard hands out belong to the caller and never
// come here.
var shardBufs struct {
	sync.Mutex
	free [][]byte
}

// maxFreeShardBufs covers four loaders; a creation-order serial walk,
// a remote source and a worker's lease each hold one buffer at a time.
const maxFreeShardBufs = 4

// TakeShardBuf returns a buffer whose capacity is at least n bytes, its
// length and contents undefined: the free list's last when that is long
// enough, else a new one. The caller owns it until it hands it back with
// ReleaseShardBuf.
func TakeShardBuf(n int64) []byte {
	var buf []byte
	shardBufs.Lock()
	if k := len(shardBufs.free) - 1; k >= 0 {
		buf = shardBufs.free[k]
		shardBufs.free[k] = nil
		shardBufs.free = shardBufs.free[:k]
	}
	shardBufs.Unlock()
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	return buf
}

// ReleaseShardBuf puts buf on the free list for the next TakeShardBuf; a
// full list lets its oldest buffer go to the collector. The caller gives
// buf up: it must hold no slice of it, and must release it once. Only a
// buffer no one else can still read may come here, so a slice someone
// else was handed (Blobs', a caller-owned fetch's) never does.
func ReleaseShardBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	shardBufs.Lock()
	defer shardBufs.Unlock()
	if k := len(shardBufs.free); k == maxFreeShardBufs {
		copy(shardBufs.free, shardBufs.free[1:])
		shardBufs.free[k-1] = nil
		shardBufs.free = shardBufs.free[:k-1]
	}
	shardBufs.free = append(shardBufs.free, buf)
}

// longestShard returns the largest uncompressed shard length: the size of
// a buffer that holds any shard of the store.
func (st *Store) longestShard() int64 {
	var longest int64
	for _, sh := range st.shards {
		longest = max(longest, sh.uncompLen)
	}
	return longest
}
