package lpstore

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
)

// The legacy v1 container survives here as a read-only import (Migrate);
// nothing writes or runs it. A v1 library is a single gzip stream holding
//
//	SEQUENCE { UTF8String "livepoint-library-v1", UTF8String benchmark,
//	           INTEGER count, INTEGER unitLen, INTEGER warmLen,
//	           BOOLEAN shuffled }
//	count DER-encoded live-points, back to back, in read order
//
// and nothing else (DESIGN.md §3.1).
const v1Magic = "livepoint-library-v1"

// readV1 reads a whole v1 library: its header and every point, in read
// order, each blob in its own allocation. The stream must end with the
// last declared point — reading to EOF is also what makes gzip check its
// CRC-32 trailer, so a library whose points all parse but whose trailer
// does not match fails the import.
func readV1(r io.Reader) (livepoint.Meta, [][]byte, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return livepoint.Meta{}, nil, fmt.Errorf("not a v1 (gzip) library: %w", err)
	}
	br := bufio.NewReader(gz)
	hdr, err := livepoint.ReadElement(br)
	if err != nil {
		return livepoint.Meta{}, nil, fmt.Errorf("read header: %w", err)
	}
	meta, err := decodeV1Meta(hdr)
	if err != nil {
		return meta, nil, err
	}
	var blobs [][]byte // not sized from Count, which is outside input
	for i := 0; i < meta.Count; i++ {
		blob, err := livepoint.ReadElement(br)
		if err != nil {
			return meta, nil, fmt.Errorf("point %d: %w", i, err)
		}
		blobs = append(blobs, blob)
	}
	if n, err := io.Copy(io.Discard, br); err != nil {
		return meta, nil, fmt.Errorf("verify stream trailer: %w", err)
	} else if n != 0 {
		return meta, nil, fmt.Errorf("%d bytes follow the last of %d declared points", n, meta.Count)
	}
	return meta, blobs, nil
}

func decodeV1Meta(buf []byte) (livepoint.Meta, error) {
	var m livepoint.Meta
	d, err := asn1der.NewDecoder(buf).Sequence()
	if err != nil {
		return m, err
	}
	magic, err := d.UTF8String()
	if err != nil {
		return m, err
	}
	if magic != v1Magic {
		return m, fmt.Errorf("not a v1 library (magic %q)", magic)
	}
	if m.Benchmark, err = d.UTF8String(); err != nil {
		return m, err
	}
	count, err := d.Uint64()
	if err != nil {
		return m, err
	}
	m.Count = int(count)
	if m.UnitLen, err = d.Uint64(); err != nil {
		return m, err
	}
	if m.WarmLen, err = d.Uint64(); err != nil {
		return m, err
	}
	m.Shuffled, err = d.Bool()
	return m, err
}
