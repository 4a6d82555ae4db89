package lpstore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"

	"livepoints/internal/livepoint"
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
func Write(path string, meta livepoint.Meta, blobs [][]byte, opts WriteOpts) (Info, error) {
	meta.Count = len(blobs)
	st := &Store{meta: meta}
	f, err := os.Create(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	if _, err := f.WriteString(fileMagic); err != nil {
		return Info{}, err
	}
	per := opts.shardPoints()
	dataOff := int64(len(fileMagic))
	for start := 0; start < len(blobs); start += per {
		end := min(start+per, len(blobs))
		var comp bytes.Buffer
		gz := gzip.NewWriter(&comp)
		var off int64
		for i := start; i < end; i++ {
			if _, err := gz.Write(blobs[i]); err != nil {
				return Info{}, fmt.Errorf("lpstore: compressing shard %d: %w", len(st.shards), err)
			}
			st.points = append(st.points, pointInfo{shard: len(st.shards), off: off, len: len(blobs[i])})
			st.order = append(st.order, uint32(i))
			off += int64(len(blobs[i]))
		}
		if err := gz.Close(); err != nil {
			return Info{}, err
		}
		if _, err := f.Write(comp.Bytes()); err != nil {
			return Info{}, err
		}
		st.shards = append(st.shards, shardInfo{
			dataOff:   dataOff,
			compLen:   int64(comp.Len()),
			uncompLen: off,
			points:    end - start,
		})
		dataOff += int64(comp.Len())
		st.uncompressed += off
	}
	idx := appendTrailer(st.encodeIndex())
	if _, err := f.Write(idx); err != nil {
		return Info{}, err
	}
	if err := f.Sync(); err != nil {
		return Info{}, err
	}
	return Info{
		Points:            len(blobs),
		Shards:            len(st.shards),
		CompressedBytes:   dataOff + int64(len(idx)),
		UncompressedBytes: st.uncompressed,
	}, nil
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

// Migrate imports a legacy v1 library (see v1.go) as a v2 one, preserving
// metadata and read order: sequential reads of dst yield the same points in
// the same order as src held them, so experiment results are bit-equal
// across the migration.
func Migrate(src, dst string, opts WriteOpts) (Info, error) {
	f, err := os.Open(src)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	meta, blobs, err := readV1(f)
	if err != nil {
		return Info{}, fmt.Errorf("lpstore: migrating %s: %w", src, err)
	}
	return Write(dst, meta, blobs, opts)
}
