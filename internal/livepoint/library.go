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

// elementHeader parses the DER tag and length octets at the start of head
// (at least two bytes): hn is the header's length and total the whole
// element's. When head stops inside the length octets, total is 0 and hn
// says how many header bytes there are to read. ReadElement and
// SplitElement both delimit points with it, so the stream reader and the
// in-place splitter cannot disagree about where a point ends.
func elementHeader(head []byte) (hn, total int, err error) {
	hn = 2
	l := int(head[1])
	if l >= 0x80 {
		nb := l & 0x7F
		if nb == 0 || nb > 4 {
			return 0, 0, fmt.Errorf("livepoint: bad length-of-length %d", nb)
		}
		if hn += nb; len(head) < hn {
			return hn, 0, nil
		}
		l = 0
		for _, b := range head[2:hn] {
			l = l<<8 | int(b)
		}
	}
	return hn, hn + l, nil
}

// ReadElement reads one complete DER TLV element (tag, length, content)
// from the stream, returning the full element bytes in a fresh slice.
// Encoded live-points are self-delimiting DER elements, so concatenated
// blobs — the body of a legacy v1 library under import — split with
// repeated calls.
func ReadElement(br *bufio.Reader) ([]byte, error) {
	var head [6]byte
	if _, err := io.ReadFull(br, head[:2]); err != nil {
		return nil, err
	}
	hn, total, err := elementHeader(head[:2])
	if err != nil {
		return nil, err
	}
	// Past the tag, the stream ending is a cut element, not a clean end.
	cut := func(err error) error {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if total == 0 {
		if _, err := io.ReadFull(br, head[2:hn]); err != nil {
			return nil, cut(err)
		}
		_, total, _ = elementHeader(head[:hn])
	}
	// The length is outside input (up to 4 GiB): an element larger than
	// elementChunk is grown only as its bytes arrive, doubling, so a
	// hostile length on a short stream cannot buy the allocation.
	dst := make([]byte, min(total, elementChunk))
	copy(dst, head[:hn])
	for have := hn; ; {
		if _, err := io.ReadFull(br, dst[have:]); err != nil {
			return nil, cut(err)
		}
		if have = len(dst); have == total {
			return dst, nil
		}
		dst = append(dst, make([]byte, min(total-have, have))...)
	}
}

// SplitElement is ReadElement over bytes already in memory: it returns the
// DER element at the start of buf as a sub-slice of buf, capped so that an
// append cannot write into what follows, and the bytes after it. A buf
// that ends inside the element is io.ErrUnexpectedEOF; an empty one,
// io.EOF. A serving batch response splits this way without a copy.
func SplitElement(buf []byte) (elem, rest []byte, err error) {
	switch len(buf) {
	case 0:
		return nil, buf, io.EOF
	case 1:
		return nil, buf, io.ErrUnexpectedEOF
	}
	_, total, err := elementHeader(buf)
	if err != nil {
		return nil, buf, err
	}
	if total == 0 || total > len(buf) {
		return nil, buf, io.ErrUnexpectedEOF
	}
	return buf[:total:total], buf[total:], nil
}

// elementChunk is ReadElement's first allocation for an oversized element;
// live-points are tens of kilobytes, so real ones are read in one piece.
const elementChunk = 1 << 20
