package isa

import (
	"encoding/binary"
	"fmt"
)

// EncodeInst serializes one instruction into the fixed 16-byte wire form
// used when instruction text is embedded in a live-point:
//
//	byte 0      opcode
//	byte 1..3   rd, rs1, rs2
//	byte 4..7   reserved (zero)
//	byte 8..15  imm, little-endian two's complement
func EncodeInst(in Inst, dst []byte) {
	_ = dst[InstBytes-1]
	dst[0] = byte(in.Op)
	dst[1] = in.Rd
	dst[2] = in.Rs1
	dst[3] = in.Rs2
	dst[4], dst[5], dst[6], dst[7] = 0, 0, 0, 0
	binary.LittleEndian.PutUint64(dst[8:16], uint64(in.Imm))
}

// DecodeInst deserializes one instruction from its 16-byte wire form. It
// refuses what EncodeInst never writes: an invalid opcode, a register
// outside the register file (the simulators index theirs by it) and
// non-zero reserved bytes.
func DecodeInst(src []byte) (Inst, error) {
	if len(src) < InstBytes {
		return Inst{}, fmt.Errorf("isa: short instruction encoding: %d bytes", len(src))
	}
	in := Inst{
		Op:  Op(src[0]),
		Rd:  src[1],
		Rs1: src[2],
		Rs2: src[3],
		Imm: int64(binary.LittleEndian.Uint64(src[8:16])),
	}
	if !in.Op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d", src[0])
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return Inst{}, fmt.Errorf("isa: register r%d, r%d or r%d outside the %d-register file", in.Rd, in.Rs1, in.Rs2, NumRegs)
	}
	if r := binary.LittleEndian.Uint32(src[4:8]); r != 0 {
		return Inst{}, fmt.Errorf("isa: reserved bytes %#08x are not zero", r)
	}
	return in, nil
}

// EncodeText serializes a run of instructions into contiguous wire form.
func EncodeText(text []Inst) []byte {
	buf := make([]byte, len(text)*InstBytes)
	for i := range text {
		EncodeInst(text[i], buf[i*InstBytes:])
	}
	return buf
}

// AppendText deserializes a contiguous run of instructions, appending them
// to dst and returning the extended slice. Passing a slice with spare
// capacity (typically text[:0] from a previous decode) keeps the call
// allocation-free in steady state.
func AppendText(dst []Inst, buf []byte) ([]Inst, error) {
	if len(buf)%InstBytes != 0 {
		return nil, fmt.Errorf("isa: text length %d not a multiple of %d", len(buf), InstBytes)
	}
	n := len(buf) / InstBytes
	for i := 0; i < n; i++ {
		in, err := DecodeInst(buf[i*InstBytes:])
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		dst = append(dst, in)
	}
	return dst, nil
}
