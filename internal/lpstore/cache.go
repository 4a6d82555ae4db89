package lpstore

import (
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
// /v1/points) and its sources — acquires a shard here and releases it
// when it has finished with it, and this file alone decides where a
// shard's buffer goes then:
//
//   - a shard someone holds stays, and is never written again;
//   - a shard whose reader will not read it again (a source past the
//     shard's last read position, or at Close) goes, if no one else holds
//     it, and its buffer back to shardBufs for the next inflate: a
//     creation-order walk holds its current shard and the one it reads
//     ahead, in two recycled buffers;
//   - other shards no one holds stay within the byte budget, least
//     recently used evicted first (the newest stays even when it alone
//     exceeds the budget), and eviction recycles the buffer too;
//   - a shard Blobs ever handed out belongs to the collector: evicted or
//     dropped at Close it is never recycled, so Blobs' slices stay valid.
//
// The table keeps one entry per shard for the store's life, and the LRU
// order is a stamp in each entry, so finding, holding and letting go of a
// shard allocate nothing. What a reader gets is shared and must not be
// written.
type shardTable struct {
	mu     sync.Mutex
	filled sync.Cond // broadcast, with mu, whenever an inflate ends
	budget int64     // shardCacheBudget; tests lower it
	bytes  int64
	shards []tableShard // one per shard, indexed by shard id
	idle   int          // inflated shards no one holds
	clock  uint64       // release's last stamp
	closed bool
}

// tableShard is one shard's entry in the table.
type tableShard struct {
	shard int
	state shardState
	data  []byte // while inflated
	err   error  // the last failed inflate's, for those who waited on it
	refs  int    // idle while inflated and 0
	blobs bool   // handed out by Blobs: the collector's, never recycled
	used  uint64 // the clock when last released
}

type shardState uint8

const (
	absent    shardState = iota
	inflating            // on the goroutine hold started
	inflated
)

// newShardTable returns the table of a store of n shards.
func newShardTable(n int) *shardTable {
	t := &shardTable{budget: shardCacheBudget, shards: make([]tableShard, n)}
	t.filled.L = &t.mu
	for s := range t.shards {
		t.shards[s].shard = s
	}
	return t
}

// acquire returns shard s inflated and verified, and counts a reference
// the caller gives back with release. blobs marks it as handed out by
// Blobs. Concurrent misses on one shard inflate it once; the others wait
// for that result. A failed inflate is returned to everyone waiting on it,
// holds no reference and is never cached, so the next call tries, and
// fails, again.
func (t *shardTable) acquire(st *Store, s int, blobs bool) (*tableShard, error) {
	e := t.hold(st, s, blobs)
	return e, t.wait(e)
}

// hold is acquire without the wait: it counts the reference and, if no
// one has, starts inflating the shard on a goroutine of its own, so that a
// source reads ahead with it. The caller waits with wait before it reads
// the shard or releases it.
func (t *shardTable) hold(st *Store, s int, blobs bool) *tableShard {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &t.shards[s]
	if e.state == inflated && e.refs == 0 {
		t.idle--
	}
	e.refs++
	e.blobs = e.blobs || blobs
	if e.state != absent {
		mShardCacheHits.Inc()
		return e
	}
	mShardCacheMisses.Inc()
	e.state = inflating
	go t.fill(st, e, blobs)
	return e
}

// fill inflates the shard hold marked inflating, into a recycled buffer
// unless it is for Blobs, and wakes whoever waits for it.
func (t *shardTable) fill(st *Store, e *tableShard, blobs bool) {
	var buf []byte
	if !blobs {
		buf = TakeShardBuf(st.longestShard())
	}
	data, err := st.inflateShard(e.shard, buf)

	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.filled.Broadcast()
	if err != nil {
		ReleaseShardBuf(buf)
		e.state, e.err = absent, err
		return
	}
	e.state, e.data, e.err = inflated, data, nil
	if !t.closed {
		t.bytes += int64(len(data))
		mShardCacheBytes.Add(float64(len(data)))
	}
}

// wait returns once the shard the caller holds is inflated, or its inflate
// has failed; a failure also drops the caller's reference.
func (t *shardTable) wait(e *tableShard) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for e.state == inflating {
		t.filled.Wait()
	}
	if e.state == inflated {
		return nil
	}
	e.refs--
	return e.err
}

// release drops a reference acquire counted. done says the caller will not
// read the shard again.
func (t *shardTable) release(e *tableShard, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	if t.closed || done && !e.blobs {
		t.drop(e)
		return
	}
	t.clock++
	e.used = t.clock
	for t.idle++; t.bytes > t.budget && t.idle > 1; t.idle-- {
		t.drop(t.leastRecent())
		mShardCacheEvictions.Inc()
	}
}

// leastRecent returns the idle shard released longest ago, if any.
func (t *shardTable) leastRecent() *tableShard {
	var old *tableShard
	for i := range t.shards {
		if e := &t.shards[i]; e.state == inflated && e.refs == 0 && (old == nil || e.used < old.used) {
			old = e
		}
	}
	return old
}

// drop empties the entry of a shard no one holds and recycles its buffer
// unless Blobs handed it out.
func (t *shardTable) drop(e *tableShard) {
	if !t.closed {
		t.bytes -= int64(len(e.data))
		mShardCacheBytes.Add(-float64(len(e.data)))
	}
	if !e.blobs {
		ReleaseShardBuf(e.data)
	}
	e.state, e.data, e.blobs = absent, nil, false
}

// close empties the table; nothing is cached after it. A shard still held
// stays valid for its holder and is recycled when released.
func (t *shardTable) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ; t.idle > 0; t.idle-- {
		t.drop(t.leastRecent())
	}
	mShardCacheBytes.Add(-float64(t.bytes))
	t.bytes = 0
	t.closed = true
}

// shardBufs is the process's one free list of load buffers: behind the
// table's shards, and, through TakeShardBuf and ReleaseShardBuf, behind
// lpserve's remote readers (a remote source's batch body, a cluster
// worker's shard lease). A shard is megabytes, and a fresh buffer for each
// is zeroing, page faults and collector cycles that a run repeats for
// every shard it reads and that cost a different amount every time;
// recycled, a run's load stage touches the same warm memory shard after
// shard and run after run, the last buffer released being the next taken.
// The list is process-wide, so the buffers outlive the store (RunFile
// opens a new one every pass) and the client; it is bounded and, unlike a
// sync.Pool, survives collections: what it pins is at most
// maxFreeShardBufs buffers, each of a size some reader needed. Buffers
// the public DecompressShard hands out belong to the caller and never
// come here.
var shardBufs struct {
	sync.Mutex
	free [][]byte
}

// maxFreeShardBufs covers two creation-order walks, each holding its
// current shard and the one it reads ahead; a remote source and a worker's
// lease each hold one buffer at a time.
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
