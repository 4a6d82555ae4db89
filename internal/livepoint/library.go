package livepoint

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"

	"livepoints/internal/asn1der"
)

// libMagic identifies the library format.
const libMagic = "livepoint-library-v1"

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

func encodeMeta(m Meta) []byte {
	b := asn1der.NewBuilder()
	b.Sequence(func(b *asn1der.Builder) {
		b.UTF8String(libMagic)
		b.UTF8String(m.Benchmark)
		b.Uint64(uint64(m.Count))
		b.Uint64(m.UnitLen)
		b.Uint64(m.WarmLen)
		b.Bool(m.Shuffled)
	})
	return b.Bytes()
}

func decodeMeta(buf []byte) (Meta, error) {
	var m Meta
	d, err := asn1der.NewDecoder(buf).Sequence()
	if err != nil {
		return m, err
	}
	magic, err := d.UTF8String()
	if err != nil {
		return m, err
	}
	if magic != libMagic {
		return m, fmt.Errorf("livepoint: not a library file (magic %q)", magic)
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
	if m.Shuffled, err = d.Bool(); err != nil {
		return m, err
	}
	return m, nil
}

// Writer streams live-points into a single gzip-compressed library file
// (the paper's recommended storage layout for I/O throughput, §6.1).
type Writer struct {
	gz      *gzip.Writer
	meta    Meta
	written int
	// UncompressedBytes accumulates pre-compression sizes (Figure 8's
	// size accounting).
	UncompressedBytes int64
}

// NewWriter writes the header and returns a streaming writer. meta.Count
// must match the number of Add calls.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	gz := gzip.NewWriter(w)
	hdr := encodeMeta(meta)
	if _, err := gz.Write(hdr); err != nil {
		return nil, fmt.Errorf("livepoint: write header: %w", err)
	}
	return &Writer{gz: gz, meta: meta, UncompressedBytes: int64(len(hdr))}, nil
}

// Add appends one already-encoded live-point.
func (w *Writer) Add(encoded []byte) error {
	if w.written >= w.meta.Count {
		return fmt.Errorf("livepoint: library declared %d points, adding more", w.meta.Count)
	}
	if _, err := w.gz.Write(encoded); err != nil {
		return err
	}
	w.written++
	w.UncompressedBytes += int64(len(encoded))
	return nil
}

// Close flushes the compressed stream. It fails if fewer points were added
// than declared.
func (w *Writer) Close() error {
	if w.written != w.meta.Count {
		return fmt.Errorf("livepoint: library declared %d points, wrote %d", w.meta.Count, w.written)
	}
	return w.gz.Close()
}

// Reader streams live-points out of a library file. Its decompressor and
// stream buffer come from process-wide pools; call Close when done to
// return them (and, on a fully drained stream, verify the gzip CRC
// trailer).
type Reader struct {
	gz   *gzip.Reader
	br   *bufio.Reader
	Meta Meta
	read int
	buf  []byte // NextBlob's reused element buffer
}

// NewReader reads the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	gz, err := AcquireGzipReader(r)
	if err != nil {
		return nil, fmt.Errorf("livepoint: open library: %w", err)
	}
	br := acquireBufReader(gz)
	hdr, err := ReadElement(br)
	if err != nil {
		releaseBufReader(br)
		ReleaseGzipReader(gz)
		return nil, fmt.Errorf("livepoint: read header: %w", err)
	}
	meta, err := decodeMeta(hdr)
	if err != nil {
		releaseBufReader(br)
		ReleaseGzipReader(gz)
		return nil, err
	}
	return &Reader{gz: gz, br: br, Meta: meta}, nil
}

// NextBlob returns the next encoded live-point, or io.EOF after the last.
// The returned slice is the reader's reused buffer: it is valid only until
// the next NextBlob call; callers that retain a blob must copy it.
func (r *Reader) NextBlob() ([]byte, error) {
	if r.read >= r.Meta.Count {
		return nil, io.EOF
	}
	blob, err := readElementInto(r.br, r.buf[:0])
	if err != nil {
		return nil, fmt.Errorf("livepoint: point %d: %w", r.read, err)
	}
	r.buf = blob
	r.read++
	return blob, nil
}

// Close returns the reader's pooled decompression state. When every
// declared point was read, it first drains the stream to EOF, which forces
// gzip's CRC-trailer verification — so trailer corruption surfaces here
// instead of being silently dropped. Close is idempotent.
func (r *Reader) Close() error {
	if r.gz == nil {
		return nil
	}
	var err error
	if r.read >= r.Meta.Count {
		if _, cerr := io.Copy(io.Discard, r.br); cerr != nil {
			err = fmt.Errorf("livepoint: verify stream trailer: %w", cerr)
		}
	}
	releaseBufReader(r.br)
	ReleaseGzipReader(r.gz)
	r.gz, r.br, r.buf = nil, nil, nil
	return err
}

// ReadElement reads one complete DER TLV element (tag, length, content)
// from the stream, returning the full element bytes. Encoded live-points
// are self-delimiting DER elements, so concatenated blobs — a v1 library
// body, a v2 shard, or a serving batch response — split with repeated
// calls.
func ReadElement(br *bufio.Reader) ([]byte, error) {
	return readElementInto(br, nil)
}

// readElementInto is ReadElement reusing dst's capacity; steady-state
// streaming (Reader.NextBlob) stays allocation-free once dst has grown to
// the library's largest point.
func readElementInto(br *bufio.Reader, dst []byte) ([]byte, error) {
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
	total := hn + l
	if cap(dst) < total {
		dst = make([]byte, total)
	} else {
		dst = dst[:total]
	}
	copy(dst, head[:hn])
	if _, err := io.ReadFull(br, dst[hn:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// WriteLibrary creates a library file at path from pre-encoded points.
func WriteLibrary(path string, meta Meta, blobs [][]byte) (uncompressed int64, err error) {
	meta.Count = len(blobs)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w, err := NewWriter(f, meta)
	if err != nil {
		return 0, err
	}
	for _, b := range blobs {
		if err := w.Add(b); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.UncompressedBytes, f.Sync()
}

// ReadAllBlobs loads every encoded point from a library file.
func ReadAllBlobs(path string) (Meta, [][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return Meta{}, nil, err
	}
	var blobs [][]byte
	for {
		b, err := r.NextBlob()
		if err == io.EOF {
			break
		}
		if err != nil {
			return r.Meta, nil, err
		}
		// NextBlob's buffer is reused; retained blobs must be copied.
		blobs = append(blobs, append([]byte(nil), b...))
	}
	if err := r.Close(); err != nil {
		return r.Meta, nil, err
	}
	return r.Meta, blobs, nil
}

// ShuffleFile rewrites a library in deterministic pseudo-random order
// (§6.1): once shuffled, any prefix of the file is an unbiased random
// sub-sample, enabling online confidence reporting.
func ShuffleFile(src, dst string, seed int64) error {
	meta, blobs, err := ReadAllBlobs(src)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
	meta.Shuffled = true
	_, err = WriteLibrary(dst, meta, blobs)
	return err
}

// FileSize returns a file's on-disk (compressed) size.
func FileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
