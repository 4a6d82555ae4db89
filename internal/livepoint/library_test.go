package livepoint_test

// The decode-error cases of the v1 single-stream container. This package
// used to read that format; it is now read only by lpstore.Migrate, which
// these tests drive (an external test package, because lpstore imports
// livepoint). What a v1 file must be refused for has not changed.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
)

// gzipped compresses raw into a single gzip stream.
func gzipped(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Header encodes a v1 library header declaring count points.
func v1Header(magic string, count int) []byte {
	b := asn1der.NewBuilder()
	b.Sequence(func(b *asn1der.Builder) {
		b.UTF8String(magic)
		b.UTF8String("syn.err")
		b.Uint64(uint64(count))
		b.Uint64(100)
		b.Uint64(200)
		b.Bool(false)
	})
	return b.Bytes()
}

// validLibrary builds an in-memory v1 library with the given declared
// count and actual blobs.
func validLibrary(t *testing.T, declared int, blobs [][]byte) []byte {
	t.Helper()
	raw := v1Header("livepoint-library-v1", declared)
	for _, blob := range blobs {
		raw = append(raw, blob...)
	}
	return gzipped(t, raw)
}

func someBlobs(n int) [][]byte {
	blobs := make([][]byte, n)
	for i := range blobs {
		b := asn1der.NewBuilder()
		b.OctetString(bytes.Repeat([]byte{byte(i)}, 40))
		blobs[i] = b.Bytes()
	}
	return blobs
}

// migrate imports lib, the bytes of a would-be v1 library, and returns the
// points of the v2 store it produced.
func migrate(t *testing.T, lib []byte) ([][]byte, error) {
	t.Helper()
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "v1.lplib"), filepath.Join(dir, "v2.lplib")
	if err := os.WriteFile(src, lib, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lpstore.Migrate(src, dst, lpstore.WriteOpts{}); err != nil {
		if _, serr := os.Stat(dst); serr == nil {
			t.Errorf("failed import left %s behind", dst)
		}
		return nil, err
	}
	st, err := lpstore.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blobs, err := st.Blobs(0, st.Count())
	if err != nil {
		t.Fatal(err)
	}
	return blobs, nil
}

func TestNewReaderWrongMagic(t *testing.T) {
	_, err := migrate(t, gzipped(t, v1Header("not-a-livepoint-library", 0)))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic should be rejected by name, got: %v", err)
	}
}

func TestNewReaderNotGzip(t *testing.T) {
	if _, err := migrate(t, []byte("plain text, not a library")); err == nil {
		t.Fatal("non-gzip input should fail to import")
	}
}

// TestNewReaderOnV2Magic documents the cross-format error: a v2 sharded
// library is not a gzip stream, so the v1 importer must refuse it.
func TestNewReaderOnV2Magic(t *testing.T) {
	if _, err := migrate(t, []byte("LPLIBv2\nwhatever follows")); err == nil {
		t.Fatal("v2 library should be rejected by the v1 importer")
	}
}

func TestNewReaderTruncatedHeader(t *testing.T) {
	lib := validLibrary(t, 2, someBlobs(2))
	// Truncate inside the compressed stream: gzip open, header read or a
	// point read must fail, never succeed.
	for _, cut := range []int{1, 5, len(lib) / 2, len(lib) - 1} {
		if _, err := migrate(t, lib[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes went unnoticed", cut, len(lib))
		}
	}
}

// TestReaderTruncatedMidPoint checks a stream that dies inside a point
// body surfaces an error naming the point.
func TestReaderTruncatedMidPoint(t *testing.T) {
	blobs := someBlobs(3)
	raw := v1Header("livepoint-library-v1", 3)
	raw = append(raw, blobs[0]...)
	raw = append(raw, blobs[1][:10]...) // second point cut short
	if _, err := migrate(t, gzipped(t, raw)); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("mid-point truncation should name point 1, got: %v", err)
	}
}

// TestReaderCountOverrun checks a library declaring more points than it
// contains fails the import rather than yielding a short store.
func TestReaderCountOverrun(t *testing.T) {
	_, err := migrate(t, validLibrary(t, 5, someBlobs(2)))
	if err == nil || !strings.Contains(err.Error(), "point 2") {
		t.Fatalf("declared-count overrun should fail at point 2, got: %v", err)
	}
}

// TestWriterCountMismatch checks the other count violation the v1 writer
// used to refuse to produce: more points in the stream than declared. The
// importer must not drop them silently.
func TestWriterCountMismatch(t *testing.T) {
	_, err := migrate(t, validLibrary(t, 1, someBlobs(2)))
	if err == nil || !strings.Contains(err.Error(), "follow the last") {
		t.Fatalf("points beyond the declared count should fail the import, got: %v", err)
	}
	got, err := migrate(t, validLibrary(t, 2, someBlobs(2)))
	if err != nil || len(got) != 2 {
		t.Fatalf("matching count: %d points, %v", len(got), err)
	}
}

// TestReadElementBadLength exercises the DER stream splitter's
// length-of-length guard, and its refusal to allocate a declared length
// ahead of the bytes.
func TestReadElementBadLength(t *testing.T) {
	for _, raw := range [][]byte{
		{0x04, 0x85, 1, 2, 3, 4, 5}, // length-of-length 5 > 4
		{0x04, 0x80},                // length-of-length 0 (indefinite, not DER)
	} {
		_, err := livepoint.ReadElement(bufio.NewReader(bytes.NewReader(raw)))
		if err == nil || !strings.Contains(err.Error(), "length-of-length") {
			t.Fatalf("bad length-of-length %#x should be rejected, got: %v", raw[1], err)
		}
	}

	big := append([]byte{0x04, 0x84, 0xff, 0xff, 0xff, 0xff}, make([]byte, 3<<20)...) // 4 GiB declared, 3 MiB present
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := livepoint.ReadElement(bufio.NewReader(bytes.NewReader(big))); err == nil {
		t.Fatal("short element should fail")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Fatalf("allocated %d MiB reading a 3 MiB stream that declares a 4 GiB element", got>>20)
	}
	whole := append([]byte{0x04, 0x83, 0x28, 0x00, 0x00}, bytes.Repeat([]byte{7}, 0x280000)...) // 2.5 MiB, grown in steps
	got, err := livepoint.ReadElement(bufio.NewReader(bytes.NewReader(whole)))
	if err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("multi-step element did not round-trip: %d bytes, %v", len(got), err)
	}
}

// TestSplitElementAgreesWithReadElement: the in-place splitter and the
// stream reader delimit the same points and refuse the same headers — on
// every prefix of a concatenation, whatever its length octets.
func TestSplitElementAgreesWithReadElement(t *testing.T) {
	var stream []byte
	for _, n := range []int{0, 5, 0x7F, 0x80, 0x1234, 0x10000} {
		b := asn1der.NewBuilder()
		b.OctetString(bytes.Repeat([]byte{byte(n)}, n))
		stream = append(stream, b.Bytes()...)
	}
	stream = append(stream, 0x04, 0x85, 1, 2, 3, 4, 5) // bad length-of-length last
	for cut := 0; cut <= len(stream); cut += 1 + cut/7 {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		rest := stream[:cut]
		for {
			want, rerr := livepoint.ReadElement(br)
			got, next, serr := livepoint.SplitElement(rest)
			if (rerr == nil) != (serr == nil) {
				t.Fatalf("cut %d at offset %d: ReadElement %v, SplitElement %v", cut, cut-len(rest), rerr, serr)
			}
			if rerr != nil {
				if rerr == io.EOF && serr != io.EOF {
					t.Fatalf("cut %d: clean end is %v, want io.EOF", cut, serr)
				}
				break
			}
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("cut %d at offset %d: split %d bytes (cap %d), read %d", cut, cut-len(rest), len(got), cap(got), len(want))
			}
			rest = next
		}
	}
}

// TestDecodeMetaGarbage checks non-SEQUENCE header bytes fail cleanly.
func TestDecodeMetaGarbage(t *testing.T) {
	b := asn1der.NewBuilder()
	b.OctetString([]byte("not a header sequence"))
	if _, err := migrate(t, gzipped(t, b.Bytes())); err == nil {
		t.Fatal("non-sequence header should fail to decode")
	}
	if _, err := migrate(t, gzipped(t, nil)); err == nil {
		t.Fatal("empty header should fail to decode")
	}
}
