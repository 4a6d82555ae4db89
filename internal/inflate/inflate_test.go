package inflate

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// gunzip inflates the whole of gz with a fresh decoder, into one buffer
// of capacity size (grown by copying when the stream is longer).
func gunzip(r io.Reader, size int) ([]byte, error) {
	d := Take(r)
	defer d.Release()
	out := make([]byte, 0, size)
	for {
		var err error
		out, err = d.Fill(out)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, 0)[:len(out)]
	}
}

// oracle is compress/gzip on one member: its bytes, and an error where it
// fails or where bytes follow the member's trailer.
func oracle(gz []byte) ([]byte, error) {
	br := bytes.NewReader(gz)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err != nil {
		return out, err
	}
	if br.Len() != 0 {
		return out, fmt.Errorf("%d bytes after the member", br.Len())
	}
	return out, nil
}

func compress(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// corpus is inputs of the shapes deflate treats differently: nothing, one
// byte, runs, text-like repeats with long and short distances, noise, and
// mixes of them past the window.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(51))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	words := func(n, vocab int) []byte {
		var b []byte
		for len(b) < n {
			b = append(b, fmt.Sprintf("w%d ", rng.Intn(vocab))...)
		}
		return b[:n]
	}
	mixed := func(n int) []byte {
		var b []byte
		for len(b) < n {
			switch rng.Intn(4) {
			case 0:
				b = append(b, noise(rng.Intn(3000))...)
			case 1:
				b = append(b, bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(2000))...)
			case 2:
				b = append(b, words(rng.Intn(5000), 50)...)
			default:
				if len(b) > 0 {
					off := rng.Intn(len(b))
					b = append(b, b[off:off+rng.Intn(len(b)-off)]...)
				}
			}
		}
		return b[:n]
	}
	return map[string][]byte{
		"empty":     nil,
		"one":       {'x'},
		"run":       bytes.Repeat([]byte{0}, 100_000),
		"period3":   bytes.Repeat([]byte("abc"), 50_000),
		"words":     words(300_000, 1000),
		"noise":     noise(100_000),
		"mixed":     mixed(700_000),
		"shortmix":  mixed(5_000),
		"wordsmall": words(777, 20),
	}
}

var levels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, 3, gzip.DefaultCompression, gzip.BestCompression}

// TestMatchesGzip: every corpus input at every level inflates to its
// bytes, filled whole, a byte of room at a time, and through a reader
// that hands over a byte at a time.
func TestMatchesGzip(t *testing.T) {
	for name, data := range corpus() {
		for _, level := range levels {
			gz := compress(t, data, level)
			for _, tc := range []struct {
				how  string
				r    io.Reader
				size int
			}{
				{"whole", bytes.NewReader(gz), len(data)},
				{"growing", bytes.NewReader(gz), 0},
				{"bytewise reader", iotest.OneByteReader(bytes.NewReader(gz)), len(data) + 1},
				{"halting reader", iotest.HalfReader(bytes.NewReader(gz)), 100},
			} {
				got, err := gunzip(tc.r, tc.size)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s, level %d, %s: %d bytes, %v; want %d bytes", name, level, tc.how, len(got), err, len(data))
				}
			}
		}
	}
}

// TestFillKeepsOnlyTheWindow: a caller that slides the last window of
// output to its buffer's front, as Discard does, gets the stream's bytes.
func TestFillKeepsOnlyTheWindow(t *testing.T) {
	data := corpus()["mixed"]
	gz := compress(t, data, gzip.DefaultCompression)
	d := Take(bytes.NewReader(gz))
	defer d.Release()
	buf := make([]byte, 0, window+1000)
	var got []byte
	for {
		before := len(buf)
		var err error
		buf, err = d.Fill(buf)
		got = append(got, buf[before:]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:copy(buf, buf[len(buf)-min(len(buf), window):])]
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%d bytes, want %d", len(got), len(data))
	}
}

// TestFillStopsAtTheIndexedLength: a buffer exactly the stream's length
// ends with io.EOF; one short of it returns nil with the buffer full, and
// Discard counts the rest.
func TestFillStopsAtTheIndexedLength(t *testing.T) {
	data := corpus()["words"]
	gz := compress(t, data, gzip.DefaultCompression)
	d := Take(bytes.NewReader(gz))
	out, err := d.Fill(make([]byte, 0, len(data)))
	d.Release()
	if err != io.EOF || !bytes.Equal(out, data) {
		t.Fatalf("exact buffer: %d bytes, %v", len(out), err)
	}
	d = Take(bytes.NewReader(gz))
	defer d.Release()
	out, err = d.Fill(make([]byte, 0, len(data)-1000))
	if err != nil || !bytes.Equal(out, data[:len(data)-1000]) {
		t.Fatalf("short buffer: %d bytes, %v", len(out), err)
	}
	n, err := d.Discard(out)
	if err != nil || n != 1000 {
		t.Fatalf("Discard: %d, %v; want 1000", n, err)
	}
}

// bitWriter builds deflate streams by hand, least significant bit first.
type bitWriter struct {
	b     []byte
	acc   uint64
	nbits uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.nbits
	w.nbits += n
	for w.nbits >= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
		w.nbits -= 8
	}
}

// code writes a Huffman codeword, which deflate sends first bit first.
func (w *bitWriter) code(c uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(c>>uint(i)&1, 1)
	}
}

func (w *bitWriter) align() []byte {
	if w.nbits > 0 {
		w.bits(0, 8-w.nbits)
	}
	return w.b
}

// member wraps a raw deflate stream in a gzip header and trailer.
func member(deflate, data []byte) []byte {
	b := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	b = append(b, deflate...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(data))
	return binary.LittleEndian.AppendUint32(b, uint32(len(data)))
}

// fixedLitCode writes a fixed-code literal/length symbol.
func (w *bitWriter) fixedLitCode(s int) {
	switch {
	case s < 144:
		w.code(uint64(0x30+s), 8)
	case s < 256:
		w.code(uint64(0x190+s-144), 9)
	case s < 280:
		w.code(uint64(s-256), 7)
	default:
		w.code(uint64(0xc0+s-280), 8)
	}
}

// handBuilt is streams compress/gzip's writer never makes.
func handBuilt() map[string][]byte {
	streams := map[string][]byte{}

	// Two stored blocks, the first empty.
	var w bitWriter
	w.bits(0, 3)
	w.align()
	w.b = append(w.b, 0, 0, 0xff, 0xff)
	w.bits(1, 3)
	w.align()
	w.b = append(w.b, 5, 0, 0xfa, 0xff)
	w.b = append(w.b, "hello"...)
	streams["stored"] = member(w.b, []byte("hello"))

	// A fixed block: "a", then a 258-byte match at distance 1 (symbol
	// 285, distance code 0), then a length-3 match at distance 1.
	w = bitWriter{}
	w.bits(1, 1)
	w.bits(1, 2)
	w.fixedLitCode('a')
	w.fixedLitCode(285)
	w.code(0, 5)
	w.fixedLitCode(257)
	w.code(0, 5)
	w.fixedLitCode(256)
	streams["fixed 258 at distance 1"] = member(w.align(), bytes.Repeat([]byte("a"), 1+258+3))

	// A dynamic block whose distance code is a single code of length one
	// and whose code length code stops at length 1's entry: "ab", then a
	// match at distance 1.
	w = bitWriter{}
	w.bits(1, 1)
	w.bits(2, 2)
	// Literal/length code: 'a', 'b', 256, 258 (length 4), all length 2.
	w.bits(2, 5)  // HLIT: 259 codes
	w.bits(1, 5)  // HDIST: 2 codes
	w.bits(14, 4) // HCLEN: 18 code length codes (through length 1)
	// Code length code lengths in codeOrder: 16,17,18,0,8,7,9,6,10,5,11,4,12,3,13,2,14,1.
	// Used: 18 (zero runs), 0, 2 (for litlen), 1 (the distance code).
	// Lengths: 18→2, 0→2, 2→2, 1→2: a complete code of four 2-bit codes.
	clen := map[int]uint64{18: 2, 0: 2, 2: 2, 1: 2}
	for _, s := range codeOrder[:18] {
		w.bits(clen[int(s)], 3)
	}
	// Canonical code length codes, by symbol: 0→00, 1→01, 2→10, 18→11.
	zero, one, two, run := func() { w.code(0, 2) }, func() { w.code(1, 2) }, func() { w.code(2, 2) }, func(n int) { w.code(3, 2); w.bits(uint64(n-11), 7) }
	run(97)  // symbols 0..96
	two()    // 'a'
	two()    // 'b'
	run(138) // 99..236
	run(19)  // 237..255
	two()    // 256
	zero()   // 257
	two()    // 258
	one()    // distance 0: length 1
	zero()   // distance 1: unused
	// Literal/length codewords, canonical by symbol: 'a' 00, 'b' 01, 256 10, 258 11.
	w.code(0, 2)
	w.code(1, 2)
	w.code(3, 2) // length 4,
	w.code(0, 1) // distance code 0: distance 1
	w.code(2, 2)
	streams["dynamic single distance code"] = member(w.align(), []byte("abbbbb"))
	return streams
}

// rejected is streams compress/gzip refuses for what their codes say.
func rejected() map[string][]byte {
	streams := map[string][]byte{}
	add := func(name string, build func(w *bitWriter)) {
		var w bitWriter
		build(&w)
		streams[name] = member(w.align(), nil)
	}
	add("reserved block type", func(w *bitWriter) { w.bits(7, 3) })
	add("stored length against its complement", func(w *bitWriter) {
		w.bits(1, 3)
		w.align()
		w.b = append(w.b, 5, 0, 0, 0)
	})
	add("fixed literal/length 286", func(w *bitWriter) {
		w.bits(3, 3)
		w.fixedLitCode(286)
		w.code(0, 5)
		w.fixedLitCode(256)
	})
	add("fixed distance 30", func(w *bitWriter) {
		w.bits(3, 3)
		w.fixedLitCode('a')
		w.fixedLitCode(257)
		w.code(30, 5)
		w.fixedLitCode(256)
	})
	add("distance past the start", func(w *bitWriter) {
		w.bits(3, 3)
		w.fixedLitCode('a')
		w.fixedLitCode(257)
		w.code(1, 5) // distance 2
		w.fixedLitCode(256)
	})
	dynamic := func(hlit, hdist, hclen uint64) func(w *bitWriter) {
		return func(w *bitWriter) {
			w.bits(5, 3)
			w.bits(hlit, 5)
			w.bits(hdist, 5)
			w.bits(hclen, 4)
		}
	}
	add("287 literal/length codes", dynamic(30, 0, 0))
	add("31 distance codes", dynamic(0, 30, 0))
	add("over-subscribed code length code", func(w *bitWriter) {
		dynamic(0, 0, 0)(w)
		w.bits(1, 3) // 16
		w.bits(1, 3) // 17
		w.bits(1, 3) // 18
		w.bits(0, 3) // 0
	})
	add("repeat before any length", func(w *bitWriter) {
		dynamic(0, 0, 0)(w)
		w.bits(1, 3) // 16: codeword 0
		w.bits(1, 3) // 17: codeword 1
		w.bits(0, 3)
		w.bits(0, 3)
		w.code(0, 1)
		w.bits(0, 2)
	})
	add("incomplete literal/length code", func(w *bitWriter) {
		dynamic(0, 0, 14)(w)
		// 18 → 1 bit, 0 and 2 → 2 bits: codewords 0 (18), 10 (0), 11 (2).
		lens := map[uint8]uint64{18: 1, 0: 2, 2: 2}
		for _, s := range codeOrder[:18] {
			w.bits(lens[s], 3)
		}
		w.code(3, 2) // symbol 0: length 2, alone
		w.code(0, 1)
		w.bits(138-11, 7)
		w.code(0, 1)
		w.bits(119-11, 7)
		w.code(2, 2)
	})
	return streams
}

// TestRefusesWhatGzipRefuses: every stream compress/gzip refuses for its
// codes, the decoder refuses too.
func TestRefusesWhatGzipRefuses(t *testing.T) {
	for name, gz := range rejected() {
		if _, err := oracle(gz); err == nil {
			t.Fatalf("%s: compress/gzip accepts the stream", name)
		}
		got, err := gunzip(bytes.NewReader(gz), 0)
		if err == nil {
			t.Errorf("%s: accepted, %q", name, got)
		}
		t.Logf("%s: %v", name, err)
	}
}

// TestHandBuiltStreams: streams the writer under test never makes inflate
// as compress/gzip inflates them.
func TestHandBuiltStreams(t *testing.T) {
	for name, gz := range handBuilt() {
		want, werr := oracle(gz)
		if werr != nil {
			t.Fatalf("%s: compress/gzip refuses the stream: %v", name, werr)
		}
		got, err := gunzip(bytes.NewReader(gz), 0)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %q, %v; want %q", name, got, err, want)
		}
	}
}

// TestHeaderFields: every optional header field is read and checked as
// compress/gzip reads it, the header CRC included.
func TestHeaderFields(t *testing.T) {
	data := []byte("header fields")
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Name, zw.Comment, zw.Extra = "name.txt", "a comment", []byte("extra")
	zw.Write(data)
	zw.Close()
	gz := b.Bytes()

	// FHCRC: insert the header's CRC-16 after the comment.
	end := bytes.Index(gz, []byte("a comment")) + len("a comment") + 1
	hcrc := binary.LittleEndian.AppendUint16(nil, uint16(crc32.ChecksumIEEE(append([]byte{gz[0], gz[1], gz[2], gz[3] | 2}, gz[4:end]...))))
	withCRC := append(append(append([]byte{}, gz[:end]...), hcrc...), gz[end:]...)
	withCRC[3] |= 2
	badCRC := bytes.Clone(withCRC)
	badCRC[end] ^= 1
	long := append([]byte{0x1f, 0x8b, 8, 8, 0, 0, 0, 0, 0, 255}, bytes.Repeat([]byte("n"), 512)...)
	long = append(append(long, 0), compress(t, data, gzip.DefaultCompression)[10:]...)

	for _, tc := range []struct {
		name string
		gz   []byte
		ok   bool
	}{
		{"extra, name, comment", gz, true},
		{"header CRC", withCRC, true},
		{"wrong header CRC", badCRC, false},
		{"name of 512 bytes", long, false},
	} {
		_, werr := oracle(tc.gz)
		if (werr == nil) != tc.ok {
			t.Fatalf("%s: compress/gzip says %v", tc.name, werr)
		}
		got, err := gunzip(bytes.NewReader(tc.gz), 0)
		if tc.ok && (err != nil || !bytes.Equal(got, data)) {
			t.Errorf("%s: %q, %v", tc.name, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDamagedStreams: a stream cut short anywhere, followed by anything,
// or with a byte of its trailer changed, is an error; so is a failing
// reader, whose error comes back as it was.
func TestDamagedStreams(t *testing.T) {
	data := corpus()["shortmix"]
	gz := compress(t, data, gzip.DefaultCompression)
	for n := 0; n < len(gz); n++ {
		if _, err := gunzip(bytes.NewReader(gz[:n]), len(data)); err == nil {
			t.Fatalf("cut to %d of %d bytes: no error", n, len(gz))
		}
	}
	for _, extra := range [][]byte{{0}, gz[:10], gz} {
		if _, err := gunzip(bytes.NewReader(append(bytes.Clone(gz), extra...)), len(data)); !errors.Is(err, errTrailing) {
			t.Errorf("%d bytes after the trailer: %v", len(extra), err)
		}
	}
	for i := len(gz) - 8; i < len(gz); i++ {
		bad := bytes.Clone(gz)
		bad[i] ^= 0x10
		if _, err := gunzip(bytes.NewReader(bad), len(data)); !errors.Is(err, errChecksum) {
			t.Errorf("trailer byte %d changed: %v", i-len(gz)+8, err)
		}
	}
	boom := errors.New("boom")
	r := io.MultiReader(bytes.NewReader(gz[:len(gz)/2]), iotest.ErrReader(boom))
	if _, err := gunzip(r, len(data)); !errors.Is(err, boom) {
		t.Errorf("failing reader: %v", err)
	}
}

// TestSteadyStateAllocatesNothing: once a decoder is on the free list,
// inflating a stream into a buffer that holds it allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	data := corpus()["mixed"]
	gz := compress(t, data, gzip.DefaultCompression)
	out := make([]byte, 0, len(data))
	r := bytes.NewReader(gz)
	inflate := func() {
		r.Reset(gz)
		d := Take(r)
		got, err := d.Fill(out)
		d.Release()
		if err != io.EOF || len(got) != len(data) {
			t.Fatalf("%d bytes, %v", len(got), err)
		}
	}
	inflate()
	if allocs := testing.AllocsPerRun(20, inflate); allocs != 0 {
		t.Errorf("%v allocations a stream, want 0", allocs)
	}
}

// FuzzGunzip holds the decoder to compress/gzip on one member: the same
// bytes where it succeeds, an error wherever it fails or bytes follow the
// trailer, and never a panic or a hang.
func FuzzGunzip(f *testing.F) {
	for _, data := range corpus() {
		if len(data) > 10_000 {
			data = data[:10_000]
		}
		for _, level := range levels {
			f.Add(compress(f, data, level))
		}
	}
	for _, gz := range handBuilt() {
		f.Add(gz)
	}
	for _, gz := range rejected() {
		f.Add(gz)
	}
	f.Fuzz(func(t *testing.T, gz []byte) {
		want, werr := oracle(gz)
		got, err := gunzip(bytes.NewReader(gz), 0)
		if werr != nil {
			if err == nil {
				t.Fatalf("compress/gzip fails (%v), the decoder gives %d bytes", werr, len(got))
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("compress/gzip gives %d bytes; the decoder %d, %v", len(want), len(got), err)
		}
	})
}

// BenchmarkGunzip prices the decoder against compress/gzip on the mixed
// corpus input at the default level, both into a reused buffer.
func BenchmarkGunzip(b *testing.B) {
	data := corpus()["mixed"]
	gz := compress(b, data, gzip.DefaultCompression)
	out := make([]byte, len(data))
	r := bytes.NewReader(gz)
	b.Run("inflate", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			r.Reset(gz)
			d := Take(r)
			if _, err := d.Fill(out[:0]); err != io.EOF {
				b.Fatal(err)
			}
			d.Release()
		}
	})
	b.Run("compress-gzip", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var zr gzip.Reader
		for i := 0; i < b.N; i++ {
			r.Reset(gz)
			if err := zr.Reset(r); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(&zr, out); err != nil {
				b.Fatal(err)
			}
			if n, err := io.Copy(io.Discard, &zr); n != 0 || err != nil {
				b.Fatal(n, err)
			}
		}
	})
}
