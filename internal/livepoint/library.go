package livepoint

import (
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
// (at least two bytes) and returns the whole element's length, or 0 when
// head stops inside the length octets.
func elementHeader(head []byte) (total int, err error) {
	hn, l := 2, int(head[1])
	if l >= 0x80 {
		nb := l & 0x7F
		if nb == 0 || nb > 4 {
			return 0, fmt.Errorf("livepoint: bad length-of-length %d", nb)
		}
		if hn += nb; len(head) < hn {
			return 0, nil
		}
		l = 0
		for _, b := range head[2:hn] {
			l = l<<8 | int(b)
		}
	}
	return hn + l, nil
}

// SplitElement delimits concatenated live-points, which are self-delimiting
// DER elements: it returns the element at the start of buf as a sub-slice
// of buf, capped so that an append cannot write into what follows, and the
// bytes after it. A buf that ends inside the element is
// io.ErrUnexpectedEOF; an empty one, io.EOF. A serving batch response
// splits this way without a copy.
func SplitElement(buf []byte) (elem, rest []byte, err error) {
	switch len(buf) {
	case 0:
		return nil, buf, io.EOF
	case 1:
		return nil, buf, io.ErrUnexpectedEOF
	}
	total, err := elementHeader(buf)
	if err != nil {
		return nil, buf, err
	}
	if total == 0 || total > len(buf) {
		return nil, buf, io.ErrUnexpectedEOF
	}
	return buf[:total:total], buf[total:], nil
}
