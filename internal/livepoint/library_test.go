package livepoint_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
)

// TestSplitElementBadLength exercises the splitter's length-of-length
// guard, and its refusal of a declared length the buffer does not hold.
func TestSplitElementBadLength(t *testing.T) {
	for _, raw := range [][]byte{
		{0x04, 0x85, 1, 2, 3, 4, 5}, // length-of-length 5 > 4
		{0x04, 0x80},                // length-of-length 0 (indefinite, not DER)
	} {
		_, rest, err := livepoint.SplitElement(raw)
		if err == nil || !strings.Contains(err.Error(), "length-of-length") {
			t.Fatalf("bad length-of-length %#x should be rejected, got: %v", raw[1], err)
		}
		if !bytes.Equal(rest, raw) {
			t.Fatalf("a refused element consumed %d bytes", len(raw)-len(rest))
		}
	}
	big := append([]byte{0x04, 0x84, 0xff, 0xff, 0xff, 0xff}, make([]byte, 1<<10)...) // 4 GiB declared, 1 KiB present
	if _, _, err := livepoint.SplitElement(big); err != io.ErrUnexpectedEOF {
		t.Fatalf("short element: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestSplitElementEveryPrefix: on every prefix of a concatenation, whatever
// its length octets, the splitter returns exactly the whole elements, each
// capped, then io.EOF at a clean end and an error inside an element.
func TestSplitElementEveryPrefix(t *testing.T) {
	var stream []byte
	var ends []int // offset just past each whole element
	for _, n := range []int{0, 5, 0x7F, 0x80, 0x1234, 0x10000} {
		b := asn1der.NewBuilder()
		b.OctetString(bytes.Repeat([]byte{byte(n)}, n))
		stream = append(stream, b.Bytes()...)
		ends = append(ends, len(stream))
	}
	stream = append(stream, 0x04, 0x85, 1, 2, 3, 4, 5) // bad length-of-length last
	for cut := 0; cut <= len(stream); cut += 1 + cut/7 {
		rest, off := stream[:cut], 0
		for _, end := range ends {
			if end > cut {
				break
			}
			elem, next, err := livepoint.SplitElement(rest)
			if err != nil {
				t.Fatalf("cut %d at offset %d: %v", cut, off, err)
			}
			if !bytes.Equal(elem, stream[off:end]) || cap(elem) != len(elem) {
				t.Fatalf("cut %d at offset %d: split %d bytes (cap %d), want %d", cut, off, len(elem), cap(elem), end-off)
			}
			rest, off = next, end
		}
		elem, _, err := livepoint.SplitElement(rest)
		switch {
		case off == cut && err != io.EOF:
			t.Fatalf("cut %d: clean end is %v, want io.EOF", cut, err)
		case off < cut && (err == nil || err == io.EOF):
			t.Fatalf("cut %d at offset %d: split %d bytes of a cut element (%v)", cut, off, len(elem), err)
		}
	}
}
