// Package inflate decodes gzip streams (RFC 1952 around RFC 1951 deflate)
// into memory the caller owns. It is the read path of every library shard:
// lpstore inflates a shard from its file into a buffer its index sizes,
// and lpserve's client inflates one as it arrives over the wire.
//
// The decoder is table-driven. Its state is a 64-bit bit buffer refilled
// eight bytes at a time from an input window it owns; each Huffman code is
// an 11-bit (literal/length) or 8-bit (distance) primary table with
// subtables for longer codes, built into storage the decoder keeps, so a
// dynamic block allocates nothing; a match reads its history straight from
// the output, eight bytes at a time where it can. It accepts exactly the
// single-member streams compress/gzip accepts, produces the same bytes,
// checks the trailer's CRC-32 and ISIZE, and refuses anything after it.
package inflate

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
)

const (
	window = 1 << 15 // how far back a deflate match reaches

	inSize   = 32 << 10 // the input window
	maxMatch = 258

	litBits  = 11 // primary literal/length table
	distBits = 8  // primary distance table
	clenBits = 7  // code length code: its codes are at most 7 bits

	// Table sizes: powers of two at least as large as any complete code
	// needs (zlib's "enough": 2342 and 402), so an index masked by size-1
	// is always in range.
	litSize  = 1 << 12
	distSize = 1 << 9

	maxLit  = 286 // literal/length codes a dynamic block may define
	maxDist = 30  // distance codes a dynamic block may define
)

// A table entry: bits 0-7 hold the code's length, 8-11 its extra bits
// (a subtable pointer: the subtable's index bits), 12-15 its kind, and
// 16-31 its value (a literal, a length or distance base, a code length
// symbol, or a subtable's offset). An entry of no kind is a length or a
// distance.
const (
	fBad = 1 << 12 // no code: an incomplete code's gap, or a reserved symbol
	fSub = 1 << 13 // the code goes on in the subtable this entry points at
	fEOB = 1 << 14 // end of block
	fLit = 1 << 15 // a literal byte
)

var (
	errHeader    = errors.New("inflate: invalid gzip header")
	errChecksum  = errors.New("inflate: invalid checksum")
	errBlockType = errors.New("inflate: reserved block type")
	errStored    = errors.New("inflate: stored block length does not match its complement")
	errCode      = errors.New("inflate: invalid Huffman code lengths")
	errSymbol    = errors.New("inflate: invalid symbol")
	errDistance  = errors.New("inflate: match distance reaches before the stream's start")
	errTrailing  = errors.New("inflate: bytes after the gzip trailer")

	// errFull is internal: the output has no room for the next byte.
	errFull = errors.New("inflate: output full")
)

// Decoder states, in stream order.
const (
	stHeader = iota
	stBlock
	stStored
	stHuff
	stTrailer
)

// stream is the state of the stream a decoder is reading; Take zeroes it.
type stream struct {
	r        io.Reader
	section  io.SectionReader // r, for TakeAt
	rerr     error            // what r returned after its last bytes: io.EOF or a failure
	ip, iend int              // in[ip:iend] is input not yet taken into bits

	bits  uint64 // input bits, first in the least significant; the nbits low ones count
	nbits uint

	state    int
	final    bool // the current block is the stream's last
	stored   int  // bytes of the current stored block not yet copied
	copyLen  int  // a match Fill stopped inside: bytes still to copy,
	copyDist int  // and from how far back
	lt       *[litSize]uint32
	dt       *[distSize]uint32

	crc     uint32 // of the gzip header, then of the output
	written int64  // output bytes so far
	err     error  // sticky: io.EOF once the stream has ended and checked out
}

// Decoder inflates one gzip stream at a time. Take one, Fill it until it
// returns io.EOF or an error, and Release it. A Decoder serves one
// goroutine.
type Decoder struct {
	stream
	in   [inSize]byte
	lens [maxLit + maxDist]uint8
	lit  [litSize]uint32
	dist [distSize]uint32
	clen [1 << clenBits]uint32
}

// free is the package's bounded list of released decoders. A decoder is
// some 50 KB of input window and tables; kept here, unlike in a sync.Pool, it
// survives collections and any goroutine can take it, so inflating a
// shard allocates nothing once as many decoders as run at once exist.
var free struct {
	sync.Mutex
	list []*Decoder
}

// maxFree covers the loaders that inflate at once: a parallel run's
// shard readers, a server's concurrent shard misses, a cluster's workers.
const maxFree = 8

// Take returns a decoder, the free list's newest when there is one, set
// to read the gzip stream r from its start. Nothing is read before the
// first Fill.
func Take(r io.Reader) *Decoder {
	var d *Decoder
	free.Lock()
	if k := len(free.list) - 1; k >= 0 {
		d = free.list[k]
		free.list[k] = nil
		free.list = free.list[:k]
	}
	free.Unlock()
	if d == nil {
		d = new(Decoder)
	}
	d.stream = stream{r: r}
	return d
}

// TakeAt is Take over the n bytes of ra at off. The reader over them is
// the decoder's own, so a file's streams are inflated without allocating.
func TakeAt(ra io.ReaderAt, off, n int64) *Decoder {
	d := Take(nil)
	d.section = *io.NewSectionReader(ra, off, n)
	d.r = &d.section
	return d
}

// Release puts d on the free list, or lets it go when the list is full.
// The caller must not use d again.
func (d *Decoder) Release() {
	d.stream = stream{}
	free.Lock()
	if len(free.list) < maxFree {
		free.list = append(free.list, d)
	}
	free.Unlock()
}

// Fill inflates the stream's next bytes into dst[len(dst):cap(dst)] and
// returns dst extended by them. dst[:len(dst)] must end with the output
// earlier calls produced, at least its last window bytes or all of it, as
// matches read their history there: a caller fills one buffer, or grows
// it by copying, or slides the last window bytes to its front.
//
// Fill returns io.EOF once the stream has ended, its trailer's CRC-32 and
// length have matched the output and its reader has ended too, even if
// dst is then exactly full; it returns nil only with dst full and output
// still to come. Any other error is the stream's fault or its reader's,
// and every later call returns it again.
func (d *Decoder) Fill(dst []byte) ([]byte, error) {
	if d.err != nil {
		return dst, d.err
	}
	out := dst[:cap(dst)]
	op, mark := len(dst), len(dst)
	// Matches may reach back to lo: the earliest output dst holds.
	lo := op - int(min(d.written, int64(op)))
	var err error
	for err == nil {
		switch d.state {
		case stHeader:
			err = d.header()
		case stBlock:
			err = d.block()
		case stStored:
			op, err = d.storedData(out, op)
		case stHuff:
			op, err = d.huffman(out, op, lo)
		case stTrailer:
			d.crc = crc32.Update(d.crc, crc32.IEEETable, out[mark:op])
			d.written += int64(op - mark)
			mark = op
			err = d.trailer()
		}
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, out[mark:op])
	d.written += int64(op - mark)
	if err == errFull {
		return out[:op], nil
	}
	d.err = err
	return out[:op], err
}

// Discard inflates the rest of the stream to nowhere and returns how many
// bytes that was; out is the output so far, as Fill takes it. It is for
// a stream found longer than expected, so it allocates its own scratch.
func (d *Decoder) Discard(out []byte) (int64, error) {
	keep := min(len(out), window)
	buf := make([]byte, keep, window+64<<10)
	copy(buf, out[len(out)-keep:])
	var n int64
	for {
		before := len(buf)
		var err error
		buf, err = d.Fill(buf)
		n += int64(len(buf) - before)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		buf = buf[:copy(buf, buf[len(buf)-window:])]
	}
}

// read takes more input into the window: it gives back the bit buffer's
// whole bytes (so align can always step back over them), moves what is
// left to the window's front and reads until at least one byte arrives or
// the reader ends.
func (d *Decoder) read() {
	d.ip -= int(d.nbits >> 3)
	d.nbits &= 7
	d.bits &= 1<<d.nbits - 1
	d.iend = copy(d.in[:], d.in[d.ip:d.iend])
	d.ip = 0
	for tries := 0; d.rerr == nil; tries++ {
		n, err := d.r.Read(d.in[d.iend:])
		d.iend += n
		switch {
		case err != nil:
			d.rerr = err
		case n > 0:
			return
		case tries == 100:
			d.rerr = io.ErrNoProgress
		}
	}
}

// truncated is the error for a stream that stops short.
func (d *Decoder) truncated() error {
	if d.rerr != nil && d.rerr != io.EOF {
		return d.rerr
	}
	return io.ErrUnexpectedEOF
}

// more fills the bit buffer a byte at a time, to 56 bits or more (but
// fewer than 64, as a fast refill needs) or the end of the input,
// whichever comes first.
func (d *Decoder) more() {
	for d.nbits < 56 {
		if d.ip == d.iend {
			if d.rerr != nil {
				return
			}
			d.read()
			continue
		}
		d.bits |= uint64(d.in[d.ip]) << d.nbits
		d.ip++
		d.nbits += 8
	}
}

// take consumes and returns the next n bits, reading input as needed.
func (d *Decoder) take(n uint) (uint32, error) {
	if d.nbits < n {
		d.more()
		if d.nbits < n {
			return 0, d.truncated()
		}
	}
	v := uint32(d.bits & (1<<n - 1))
	d.bits >>= n
	d.nbits -= n
	return v, nil
}

// align drops the bits of a partly consumed byte and gives back the whole
// bytes in the bit buffer, so byte-wise reads go on from the next byte.
func (d *Decoder) align() {
	d.ip -= int(d.nbits >> 3)
	d.bits, d.nbits = 0, 0
}

// byte reads one byte of an aligned stream.
func (d *Decoder) byte() (byte, error) {
	for d.ip == d.iend {
		if d.rerr != nil {
			return 0, d.truncated()
		}
		d.read()
	}
	b := d.in[d.ip]
	d.ip++
	return b, nil
}

// headerByte reads one header byte into the header's CRC.
func (d *Decoder) headerByte() (byte, error) {
	b, err := d.byte()
	c := ^d.crc
	d.crc = ^(crc32.IEEETable[byte(c)^b] ^ c>>8)
	return b, err
}

// header reads and checks the gzip header as compress/gzip does: ID, the
// deflate method, and whatever the flags say follows — the extra field,
// a name and a comment of at most 511 bytes each before their NUL, and
// the header CRC.
func (d *Decoder) header() error {
	const (
		fhcrc    = 1 << 1
		fextra   = 1 << 2
		fname    = 1 << 3
		fcomment = 1 << 4
	)
	var h [10]byte
	for i := range h {
		b, err := d.headerByte()
		if err != nil {
			return err
		}
		h[i] = b
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return errHeader
	}
	flg := h[3]
	if flg&fextra != 0 {
		lo, err := d.headerByte()
		if err != nil {
			return err
		}
		hi, err := d.headerByte()
		if err != nil {
			return err
		}
		for n := int(lo) | int(hi)<<8; n > 0; n-- {
			if _, err := d.headerByte(); err != nil {
				return err
			}
		}
	}
	for _, f := range [...]byte{fname, fcomment} {
		if flg&f == 0 {
			continue
		}
		for i := 0; ; i++ {
			if i == 512 {
				return errHeader
			}
			b, err := d.headerByte()
			if err != nil {
				return err
			}
			if b == 0 {
				break
			}
		}
	}
	if flg&fhcrc != 0 {
		want := uint16(d.crc)
		lo, err := d.byte()
		if err != nil {
			return err
		}
		hi, err := d.byte()
		if err != nil {
			return err
		}
		if uint16(lo)|uint16(hi)<<8 != want {
			return errHeader
		}
	}
	d.crc = 0
	d.state = stBlock
	return nil
}

// block reads a block header and, for a dynamic block, its codes.
func (d *Decoder) block() error {
	v, err := d.take(3)
	if err != nil {
		return err
	}
	d.final = v&1 != 0
	switch v >> 1 {
	case 0:
		d.align()
		var h [4]byte
		for i := range h {
			if h[i], err = d.byte(); err != nil {
				return err
			}
		}
		n, nn := binary.LittleEndian.Uint16(h[:2]), binary.LittleEndian.Uint16(h[2:])
		if n != ^nn {
			return errStored
		}
		d.stored = int(n)
		d.state = stStored
	case 1:
		d.lt, d.dt = &fixedLit, &fixedDist
		d.state = stHuff
	case 2:
		if err := d.dynamic(); err != nil {
			return err
		}
		d.lt, d.dt = &d.lit, &d.dist
		d.state = stHuff
	default:
		return errBlockType
	}
	return nil
}

// endBlock moves on past a block's last byte.
func (d *Decoder) endBlock() {
	if d.final {
		d.state = stTrailer
	} else {
		d.state = stBlock
	}
}

// codeOrder is the order a dynamic block lists its code length code's
// lengths in.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamic reads a dynamic block's code definitions into d.lit and d.dist.
func (d *Decoder) dynamic() error {
	v, err := d.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > maxLit || ndist > maxDist {
		return errCode
	}
	var cl [19]uint8
	for _, s := range codeOrder[:nclen] {
		v, err := d.take(3)
		if err != nil {
			return err
		}
		cl[s] = uint8(v)
	}
	if !build(d.clen[:], clenBits, cl[:], clenVals[:]) {
		return errCode
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.more()
		e := d.clen[d.bits&(1<<clenBits-1)]
		if e&fBad != 0 {
			return errCode
		}
		if n := uint(e & 0xff); n <= d.nbits {
			d.bits >>= n
			d.nbits -= n
		} else {
			return d.truncated()
		}
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep uint32
		var fill uint8
		switch sym {
		case 16:
			if i == 0 {
				return errCode
			}
			rep, err = d.take(2)
			rep += 3
			fill = lens[i-1]
		case 17:
			rep, err = d.take(3)
			rep += 3
		default:
			rep, err = d.take(7)
			rep += 11
		}
		if err != nil {
			return err
		}
		if i+int(rep) > len(lens) {
			return errCode
		}
		for end := i + int(rep); i < end; i++ {
			lens[i] = fill
		}
	}
	if !build(d.lit[:], litBits, lens[:nlit], litVals[:]) || !build(d.dist[:], distBits, lens[nlit:], distVals[:]) {
		return errCode
	}
	return nil
}

// storedData copies a stored block's bytes from the input to out[op:].
func (d *Decoder) storedData(out []byte, op int) (int, error) {
	for d.stored > 0 {
		if op == len(out) {
			return op, errFull
		}
		if d.ip == d.iend {
			if d.rerr != nil {
				return op, d.truncated()
			}
			d.read()
			continue
		}
		n := copy(out[op:min(len(out), op+d.stored)], d.in[d.ip:d.iend])
		op += n
		d.ip += n
		d.stored -= n
	}
	d.endBlock()
	return op, nil
}

// huffman inflates the current Huffman block into out[op:] until the block
// ends or out has no room for the next symbol's bytes. Matches may reach
// back to out[lo].
//
// Most symbols take the fast loop, whose bits and locals the compiler
// keeps in registers: it runs while the window holds eight more input
// bytes — a refill then tops the bit buffer up to at least 56 bits, all a
// length and distance pair, or two literals, can take — and out has room
// for a longest match and eight bytes over, which its eight-byte copies
// may write past a match's end. The rest, near the end of the input or of
// out, take step, which checks every bit and byte.
func (d *Decoder) huffman(out []byte, op, lo int) (int, error) {
	if d.copyLen > 0 {
		if d.copyDist > op-lo {
			return op, errDistance
		}
		n := min(d.copyLen, len(out)-op)
		op = copyMatch(out, op, d.copyDist, n)
		if d.copyLen -= n; d.copyLen > 0 {
			return op, errFull
		}
	}
	lt, dt := d.lt, d.dt
	in := &d.in
	for {
		bits, nbits, ip, iend := d.bits, d.nbits, d.ip, d.iend
		for ip+8 <= iend && op+maxMatch+8 <= len(out) {
			bits |= binary.LittleEndian.Uint64(in[ip:]) << (nbits & 63)
			ip += int(63-nbits) >> 3
			nbits |= 56

			e := lt[bits&(1<<litBits-1)]
			if e&fSub != 0 {
				e = lt[(e>>16+uint32(bits>>litBits)&(1<<(e>>8&15)-1))&(litSize-1)]
			}
			n := e & 63
			if e&fLit != 0 {
				bits >>= n
				nbits -= uint(n)
				out[op] = byte(e >> 16)
				op++
				// A literal left at least 41 bits: enough for another.
				if e = lt[bits&(1<<litBits-1)]; e&fLit != 0 {
					n = e & 63
					bits >>= n
					nbits -= uint(n)
					out[op] = byte(e >> 16)
					op++
				}
				continue
			}
			if e&(fEOB|fBad) != 0 {
				if e&fBad != 0 {
					return op, errSymbol
				}
				d.bits, d.nbits, d.ip = bits>>n, nbits-uint(n), ip
				d.endBlock()
				return op, nil
			}
			bits >>= n
			nbits -= uint(n)
			x := e >> 8 & 15
			length := int(e>>16) + int(bits&(1<<x-1))
			bits >>= x
			nbits -= uint(x)

			e = dt[bits&(1<<distBits-1)]
			if e&fSub != 0 {
				e = dt[(e>>16+uint32(bits>>distBits)&(1<<(e>>8&15)-1))&(distSize-1)]
			}
			if e&fBad != 0 {
				return op, errSymbol
			}
			n = e & 63
			bits >>= n
			nbits -= uint(n)
			x = e >> 8 & 15
			dist := int(e>>16) + int(bits&(1<<x-1))
			bits >>= x
			nbits -= uint(x)

			if dist > op-lo {
				return op, errDistance
			}
			if dist < 8 {
				op = copyMatch(out, op, dist, length)
				continue
			}
			src, end := op-dist, op+length
			for op < end {
				binary.LittleEndian.PutUint64(out[op:], binary.LittleEndian.Uint64(out[src:]))
				op += 8
				src += 8
			}
			op = end
		}
		d.bits, d.nbits, d.ip = bits, nbits, ip
		if ip+8 > iend && d.rerr == nil {
			d.read()
			continue
		}
		var err error
		if op, err = d.step(out, op, lo); err != nil || d.state != stHuff {
			return op, err
		}
	}
}

// step inflates one symbol of a Huffman block, checking that its bits
// arrived and that out has room: a literal that does not fit is left
// unread, the part of a match that does not fit is left for the next
// Fill.
func (d *Decoder) step(out []byte, op, lo int) (int, error) {
	d.more()
	e := d.lt[d.bits&(1<<litBits-1)]
	if e&fSub != 0 {
		e = d.lt[(e>>16+uint32(d.bits>>litBits)&(1<<(e>>8&15)-1))&(litSize-1)]
	}
	if e&fBad != 0 {
		return op, errSymbol
	}
	n := uint(e & 63)
	if n > d.nbits {
		return op, d.truncated()
	}
	if e&fLit != 0 {
		if op == len(out) {
			return op, errFull
		}
		d.bits >>= n
		d.nbits -= n
		out[op] = byte(e >> 16)
		return op + 1, nil
	}
	d.bits >>= n
	d.nbits -= n
	if e&fEOB != 0 {
		d.endBlock()
		return op, nil
	}
	x, err := d.take(uint(e >> 8 & 15))
	if err != nil {
		return op, err
	}
	length := int(e>>16 + x)

	e = d.dt[d.bits&(1<<distBits-1)]
	if e&fSub != 0 {
		e = d.dt[(e>>16+uint32(d.bits>>distBits)&(1<<(e>>8&15)-1))&(distSize-1)]
	}
	if e&fBad != 0 {
		return op, errSymbol
	}
	if n = uint(e & 63); n > d.nbits {
		return op, d.truncated()
	}
	d.bits >>= n
	d.nbits -= n
	if x, err = d.take(uint(e >> 8 & 15)); err != nil {
		return op, err
	}
	dist := int(e>>16 + x)
	if dist > op-lo {
		return op, errDistance
	}
	m := min(length, len(out)-op)
	op = copyMatch(out, op, dist, m)
	if m < length {
		d.copyLen, d.copyDist = length-m, dist
		return op, errFull
	}
	return op, nil
}

// copyMatch copies n bytes from dist back to out[op:], exactly: where
// the match overlaps itself, each copy doubles the bytes the next reads.
func copyMatch(out []byte, op, dist, n int) int {
	src, end := op-dist, op+n
	for op < end {
		op += copy(out[op:end], out[src:op])
	}
	return end
}

// trailer checks the gzip trailer against the output and that the input
// ends with it.
func (d *Decoder) trailer() error {
	d.align()
	var t [8]byte
	for i := range t {
		b, err := d.byte()
		if err != nil {
			return err
		}
		t[i] = b
	}
	if binary.LittleEndian.Uint32(t[:4]) != d.crc || binary.LittleEndian.Uint32(t[4:]) != uint32(d.written) {
		return errChecksum
	}
	for d.ip == d.iend && d.rerr == nil {
		d.read()
	}
	if d.ip != d.iend {
		return errTrailing
	}
	if d.rerr != io.EOF {
		return d.rerr
	}
	return io.EOF
}
