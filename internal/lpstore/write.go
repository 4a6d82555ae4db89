package lpstore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"livepoints/internal/livepoint"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
)

// WriteOpts configures v2 library writing.
type WriteOpts struct {
	// ShardPoints caps the number of points per shard (default
	// DefaultShardPoints). Smaller shards raise random-access and parallel
	// granularity; larger shards compress better.
	ShardPoints int
}

func (o WriteOpts) shardPoints() int {
	if o.ShardPoints <= 0 {
		return DefaultShardPoints
	}
	return o.ShardPoints
}

// Write creates a v2 library file at path from pre-encoded points:
// consecutive runs of ShardPoints blobs become one gzip stream each, and
// the read order is the identity, so blob order is the read order. Callers
// wanting a random order use WriteShuffled, or Shuffle the index afterwards.
//
// Shards are compressed concurrently (compressShards) and written in
// order, so the file is the same bytes whatever GOMAXPROCS is. The file
// replaces path atomically: until Write succeeds, a library already at
// path is untouched, and a failed Write leaves nothing behind.
func Write(path string, meta livepoint.Meta, blobs [][]byte, opts WriteOpts) (Info, error) {
	meta.Count = len(blobs)
	st := &Store{meta: meta}
	per := opts.shardPoints()
	dataOff := int64(len(fileMagic))
	var idx []byte
	err := replaceFile(path, func(f *os.File) error {
		if _, err := f.WriteString(fileMagic); err != nil {
			return err
		}
		err := compressShards(blobs, per, func(shard int, comp []byte) error {
			start, end := shard*per, min(shard*per+per, len(blobs))
			var off int64
			for i := start; i < end; i++ {
				st.points = append(st.points, pointInfo{shard: shard, off: off, len: len(blobs[i])})
				st.order = append(st.order, uint32(i))
				off += int64(len(blobs[i]))
			}
			if _, err := f.Write(comp); err != nil {
				return err
			}
			st.shards = append(st.shards, shardInfo{
				dataOff:   dataOff,
				compLen:   int64(len(comp)),
				uncompLen: off,
				points:    end - start,
			})
			dataOff += int64(len(comp))
			st.uncompressed += off
			return nil
		})
		if err != nil {
			return err
		}
		idx = appendTrailer(st.encodeIndex())
		_, err = f.Write(idx)
		return err
	})
	if err != nil {
		return Info{}, err
	}
	return Info{
		Points:            len(blobs),
		Shards:            len(st.shards),
		CompressedBytes:   dataOff + int64(len(idx)),
		UncompressedBytes: st.uncompressed,
	}, nil
}

// compressShards gzips blobs in shards of per points, at gzip's default
// level, on min(GOMAXPROCS, shards) goroutines, and calls write with each
// shard's stream in shard order on the calling goroutine. A shard's stream
// depends only on its blobs, so the streams are the bytes serial
// compression gives. At most workers+1 compressed shards exist at once:
// a worker takes a buffer from free before it claims the next shard, and
// the buffer comes back only once write has consumed that shard. The first
// error (compressing or from write) is returned, and every worker has
// exited by the time compressShards returns.
func compressShards(blobs [][]byte, per int, write func(shard int, comp []byte) error) error {
	shards := (len(blobs) + per - 1) / per
	if shards == 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), shards)
	type result struct {
		buf *bytes.Buffer
		err error
	}
	// Claimed, unwritten shards hold a buffer each, so they are a run of at
	// most len(ready) consecutive shards, and shard k's slot k%len(ready)
	// has been emptied by the time k is claimed.
	free := make(chan *bytes.Buffer, workers+1)
	ready := make([]chan result, workers+1)
	for i := range ready {
		free <- new(bytes.Buffer)
		ready[i] = make(chan result, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gz := gzip.NewWriter(nil)
			for {
				var buf *bytes.Buffer
				select {
				case <-stop:
					return
				case buf = <-free:
				}
				k := int(next.Add(1) - 1)
				if k >= shards {
					return
				}
				buf.Reset()
				gz.Reset(buf)
				var err error
				for _, b := range blobs[k*per : min(k*per+per, len(blobs))] {
					if _, err = gz.Write(b); err != nil {
						break
					}
				}
				if err == nil {
					err = gz.Close()
				}
				ready[k%len(ready)] <- result{buf, err}
			}
		}()
	}
	for k := 0; k < shards; k++ {
		r := <-ready[k%len(ready)]
		if r.err != nil {
			return fmt.Errorf("lpstore: compressing shard %d: %w", k, r.err)
		}
		if err := write(k, r.buf.Bytes()); err != nil {
			return err
		}
		free <- r.buf
	}
	return nil
}

// replaceFile writes a file at path atomically: fill writes a new file in
// path's directory, which is synced, closed and renamed over path only if
// every step succeeds. On any failure the new file is removed and path is
// left as it was.
func replaceFile(path string, fill func(*os.File) error) (err error) {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = fill(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// createTemp creates a new, uniquely named file beside path. Unlike
// os.CreateTemp's 0600 it keeps os.Create's mode, 0666 before the umask,
// so a replaced library is as readable as a created one.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		f, err := os.OpenFile(fmt.Sprintf("%s.%d.tmp", path, rand.Uint32()), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !os.IsExist(err) || try == 100 {
			return f, err
		}
	}
}

// WriteShuffled is the creation-time shuffle (§6.1): it permutes blobs in
// place, deterministically from seed, and writes them as a library marked
// Shuffled — any prefix of its read order is an unbiased sub-sample, and a
// shard-major read is already in random order. Marking and shuffling are
// one step so that a library cannot claim an order it was not given.
func WriteShuffled(path string, meta livepoint.Meta, blobs [][]byte, seed int64, opts WriteOpts) (Info, error) {
	rand.New(rand.NewSource(seed)).Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
	meta.Shuffled = true
	return Write(path, meta, blobs, opts)
}

// Create is the one creation recipe: it captures p's live-points over
// design with opts (livepoint.Create), encodes them, and writes them as a
// library shuffled from seed (WriteShuffled). The same arguments give the
// same bytes.
func Create(path string, p *prog.Program, design sampling.Design, opts livepoint.CreateOpts, seed int64, wopts WriteOpts) (Info, error) {
	var blobs [][]byte
	err := livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
		blob, _ := livepoint.Encode(lp)
		blobs = append(blobs, blob)
		return nil
	})
	if err != nil {
		return Info{}, err
	}
	meta := livepoint.Meta{Benchmark: p.Name, UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	return WriteShuffled(path, meta, blobs, seed, wopts)
}
