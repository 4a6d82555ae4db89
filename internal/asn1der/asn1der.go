// Package asn1der implements the subset of ASN.1 Distinguished Encoding
// Rules (ISO/IEC 8825-1) that the live-point format uses: BOOLEAN, INTEGER,
// OCTET STRING, UTF8String, SEQUENCE, and context-specific constructed
// tags. The paper encodes live-points in ASN.1 DER before gzip compression
// (§3); this package reproduces that wire discipline from scratch.
//
// DER demands minimal, canonical encodings: definite lengths with the
// fewest bytes, integers in minimal two's complement. The decoder enforces
// these rules, so any encoder bug that breaks canonical form is caught by
// round-trip tests.
package asn1der

import (
	"errors"
	"fmt"
)

// Universal tags used by the live-point format.
const (
	TagBoolean     = 0x01
	TagInteger     = 0x02
	TagOctetString = 0x04
	TagUTF8String  = 0x0C
	TagSequence    = 0x30 // constructed
)

// ContextTag returns the identifier octet for a context-specific
// constructed tag [n] (n < 31).
func ContextTag(n int) byte {
	if n < 0 || n >= 31 {
		panic(fmt.Sprintf("asn1der: context tag %d out of range", n))
	}
	return 0xA0 | byte(n)
}

// ErrTruncated reports input ending inside an element.
var ErrTruncated = errors.New("asn1der: truncated input")

// Builder incrementally assembles DER output.
type Builder struct {
	buf []byte
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Bytes returns the encoded output. The slice aliases the builder's
// internal buffer.
func (b *Builder) Bytes() []byte { return b.buf }

// Len returns the current encoded size.
func (b *Builder) Len() int { return len(b.buf) }

// appendLength appends a DER definite length.
func (b *Builder) appendLength(n int) {
	switch {
	case n < 0x80:
		b.buf = append(b.buf, byte(n))
	case n <= 0xFF:
		b.buf = append(b.buf, 0x81, byte(n))
	case n <= 0xFFFF:
		b.buf = append(b.buf, 0x82, byte(n>>8), byte(n))
	case n <= 0xFFFFFF:
		b.buf = append(b.buf, 0x83, byte(n>>16), byte(n>>8), byte(n))
	default:
		b.buf = append(b.buf, 0x84, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// Bool appends a BOOLEAN (DER: 0xFF for true, 0x00 for false).
func (b *Builder) Bool(v bool) {
	b.buf = append(b.buf, TagBoolean, 1)
	if v {
		b.buf = append(b.buf, 0xFF)
	} else {
		b.buf = append(b.buf, 0x00)
	}
}

// Int64 appends an INTEGER in minimal two's complement.
func (b *Builder) Int64(v int64) {
	var tmp [8]byte
	for i := 0; i < 8; i++ {
		tmp[i] = byte(v >> uint(56-8*i))
	}
	// Strip redundant leading bytes per DER.
	i := 0
	for i < 7 {
		if tmp[i] == 0x00 && tmp[i+1]&0x80 == 0 {
			i++
			continue
		}
		if tmp[i] == 0xFF && tmp[i+1]&0x80 != 0 {
			i++
			continue
		}
		break
	}
	content := tmp[i:]
	b.buf = append(b.buf, TagInteger)
	b.appendLength(len(content))
	b.buf = append(b.buf, content...)
}

// Uint64 appends an unsigned value as an INTEGER (prepending 0x00 when the
// top bit is set, per DER).
func (b *Builder) Uint64(v uint64) {
	var tmp [9]byte
	for i := 0; i < 8; i++ {
		tmp[i+1] = byte(v >> uint(56-8*i))
	}
	i := 1
	for i < 8 && tmp[i] == 0 {
		i++
	}
	if tmp[i]&0x80 != 0 {
		i-- // keep one 0x00 pad
	}
	content := tmp[i:]
	b.buf = append(b.buf, TagInteger)
	b.appendLength(len(content))
	b.buf = append(b.buf, content...)
}

// OctetString appends an OCTET STRING.
func (b *Builder) OctetString(v []byte) {
	b.buf = append(b.buf, TagOctetString)
	b.appendLength(len(v))
	b.buf = append(b.buf, v...)
}

// UTF8String appends a UTF8String.
func (b *Builder) UTF8String(v string) {
	b.buf = append(b.buf, TagUTF8String)
	b.appendLength(len(v))
	b.buf = append(b.buf, v...)
}

// Sequence appends a SEQUENCE whose contents are produced by fn.
func (b *Builder) Sequence(fn func(*Builder)) { b.constructed(TagSequence, fn) }

// Context appends a context-specific constructed element [n].
func (b *Builder) Context(n int, fn func(*Builder)) { b.constructed(ContextTag(n), fn) }

func (b *Builder) constructed(tag byte, fn func(*Builder)) {
	child := &Builder{}
	fn(child)
	b.buf = append(b.buf, tag)
	b.appendLength(len(child.buf))
	b.buf = append(b.buf, child.buf...)
}

// Decoder walks DER input produced by Builder.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over the input.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Over returns a value Decoder over the input. Unlike NewDecoder it never
// touches the heap, which matters to allocation-free decode paths: child
// decoders obtained with ReadSequence/ReadContext live on the caller's
// stack.
func Over(buf []byte) Decoder { return Decoder{buf: buf} }

// More reports whether undecoded bytes remain.
func (d *Decoder) More() bool { return d.off < len(d.buf) }

// readHeader consumes an identifier octet and length, returning the tag and
// content bounds.
func (d *Decoder) readHeader() (tag byte, content []byte, err error) {
	if d.off >= len(d.buf) {
		return 0, nil, ErrTruncated
	}
	tag = d.buf[d.off]
	d.off++
	if d.off >= len(d.buf) {
		return 0, nil, ErrTruncated
	}
	l := int(d.buf[d.off])
	d.off++
	if l >= 0x80 {
		nb := l & 0x7F
		if nb == 0 || nb > 4 {
			return 0, nil, fmt.Errorf("asn1der: unsupported length-of-length %d", nb)
		}
		if d.off+nb > len(d.buf) {
			return 0, nil, ErrTruncated
		}
		l = 0
		for i := 0; i < nb; i++ {
			l = l<<8 | int(d.buf[d.off])
			d.off++
		}
		if l < 0x80 && nb == 1 {
			return 0, nil, errors.New("asn1der: non-minimal length encoding")
		}
	}
	if d.off+l > len(d.buf) {
		return 0, nil, ErrTruncated
	}
	content = d.buf[d.off : d.off+l]
	d.off += l
	return tag, content, nil
}

// expect reads an element and checks its tag.
func (d *Decoder) expect(want byte) ([]byte, error) {
	tag, content, err := d.readHeader()
	if err != nil {
		return nil, err
	}
	if tag != want {
		return nil, fmt.Errorf("asn1der: tag %#02x, want %#02x at offset %d", tag, want, d.off)
	}
	return content, nil
}

// Bool reads a BOOLEAN.
func (d *Decoder) Bool() (bool, error) {
	c, err := d.expect(TagBoolean)
	if err != nil {
		return false, err
	}
	if len(c) != 1 || (c[0] != 0x00 && c[0] != 0xFF) {
		return false, errors.New("asn1der: non-canonical boolean")
	}
	return c[0] == 0xFF, nil
}

// Int64 reads an INTEGER.
func (d *Decoder) Int64() (int64, error) {
	c, err := d.expect(TagInteger)
	if err != nil {
		return 0, err
	}
	if err := checkMinimalInt(c); err != nil {
		return 0, err
	}
	if len(c) > 8 {
		return 0, errors.New("asn1der: integer overflows int64")
	}
	v := int64(0)
	if c[0]&0x80 != 0 {
		v = -1
	}
	for _, by := range c {
		v = v<<8 | int64(by)
	}
	return v, nil
}

// Uint64 reads an unsigned INTEGER.
func (d *Decoder) Uint64() (uint64, error) {
	c, err := d.expect(TagInteger)
	if err != nil {
		return 0, err
	}
	if err := checkMinimalInt(c); err != nil {
		return 0, err
	}
	if c[0]&0x80 != 0 {
		return 0, errors.New("asn1der: negative value for unsigned field")
	}
	if len(c) > 9 || (len(c) == 9 && c[0] != 0) {
		return 0, errors.New("asn1der: integer overflows uint64")
	}
	v := uint64(0)
	for _, by := range c {
		v = v<<8 | uint64(by)
	}
	return v, nil
}

func checkMinimalInt(c []byte) error {
	if len(c) == 0 {
		return errors.New("asn1der: empty integer")
	}
	if len(c) > 1 {
		if c[0] == 0x00 && c[1]&0x80 == 0 {
			return errors.New("asn1der: non-minimal integer")
		}
		if c[0] == 0xFF && c[1]&0x80 != 0 {
			return errors.New("asn1der: non-minimal integer")
		}
	}
	return nil
}

// OctetString reads an OCTET STRING. The returned slice aliases the input.
func (d *Decoder) OctetString() ([]byte, error) { return d.expect(TagOctetString) }

// UTF8String reads a UTF8String.
func (d *Decoder) UTF8String() (string, error) {
	c, err := d.expect(TagUTF8String)
	if err != nil {
		return "", err
	}
	return string(c), nil
}

// UTF8Bytes reads a UTF8String and returns its raw contents. The returned
// slice aliases the input; callers that keep it must copy. Allocation-free
// decoders use it to compare against an already-interned string before
// converting.
func (d *Decoder) UTF8Bytes() ([]byte, error) { return d.expect(TagUTF8String) }

// Sequence reads a SEQUENCE and returns a decoder over its contents.
func (d *Decoder) Sequence() (*Decoder, error) {
	c, err := d.expect(TagSequence)
	if err != nil {
		return nil, err
	}
	return NewDecoder(c), nil
}

// Context reads a context-specific constructed element [n] and returns a
// decoder over its contents.
func (d *Decoder) Context(n int) (*Decoder, error) {
	c, err := d.expect(ContextTag(n))
	if err != nil {
		return nil, err
	}
	return NewDecoder(c), nil
}

// ReadSequence reads a SEQUENCE and returns a value decoder over its
// contents. Semantically identical to Sequence, but the child decoder is
// returned by value so hot decode loops stay allocation-free.
func (d *Decoder) ReadSequence() (Decoder, error) {
	c, err := d.expect(TagSequence)
	if err != nil {
		return Decoder{}, err
	}
	return Decoder{buf: c}, nil
}

// ReadContext reads a context-specific constructed element [n] and returns
// a value decoder over its contents (the allocation-free Context).
func (d *Decoder) ReadContext(n int) (Decoder, error) {
	c, err := d.expect(ContextTag(n))
	if err != nil {
		return Decoder{}, err
	}
	return Decoder{buf: c}, nil
}

// PeekTag returns the next element's tag without consuming it.
func (d *Decoder) PeekTag() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, ErrTruncated
	}
	return d.buf[d.off], nil
}
