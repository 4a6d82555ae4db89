package livepoint

import (
	"bufio"
	"fmt"
	"io"
)

// Meta is the library header.
type Meta struct {
	Benchmark string
	Count     int
	UnitLen   uint64
	WarmLen   uint64
	// Shuffled records whether the points are in random order (§6.1);
	// experiment runners refuse online confidence reporting on unshuffled
	// libraries.
	Shuffled bool
}

// ReadElement reads one complete DER TLV element (tag, length, content)
// from the stream, returning the full element bytes in a fresh slice.
// Encoded live-points are self-delimiting DER elements, so concatenated
// blobs — a serving batch response, or the body of a legacy v1 library
// under import — split with repeated calls.
func ReadElement(br *bufio.Reader) ([]byte, error) {
	var head [6]byte
	if _, err := io.ReadFull(br, head[:2]); err != nil {
		return nil, err
	}
	hn := 2
	l := int(head[1])
	if l >= 0x80 {
		nb := l & 0x7F
		if nb == 0 || nb > 4 {
			return nil, fmt.Errorf("livepoint: bad length-of-length %d", nb)
		}
		if _, err := io.ReadFull(br, head[2:2+nb]); err != nil {
			return nil, err
		}
		l = 0
		for _, b := range head[2 : 2+nb] {
			l = l<<8 | int(b)
		}
		hn += nb
	}
	// The length is outside input (up to 4 GiB): an element larger than
	// elementChunk is grown only as its bytes arrive, doubling, so a
	// hostile length on a short stream cannot buy the allocation.
	total := hn + l
	dst := make([]byte, min(total, elementChunk))
	copy(dst, head[:hn])
	for have := hn; ; {
		if _, err := io.ReadFull(br, dst[have:]); err != nil {
			return nil, err
		}
		if have = len(dst); have == total {
			return dst, nil
		}
		dst = append(dst, make([]byte, min(total-have, have))...)
	}
}

// elementChunk is ReadElement's first allocation for an oversized element;
// live-points are tens of kilobytes, so real ones are read in one piece.
const elementChunk = 1 << 20
