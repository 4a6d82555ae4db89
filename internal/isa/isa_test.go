package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpClassesComplete(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		o := Op(op)
		if o.String() == "" {
			t.Errorf("op %d has no mnemonic", op)
		}
		if o.Class() > ClassNone {
			t.Errorf("op %s has invalid class", o)
		}
	}
	if Op(200).Valid() {
		t.Error("op 200 should be invalid")
	}
}

func TestBranchClassification(t *testing.T) {
	cond := []Op{OpBeq, OpBne, OpBltz, OpBgez}
	uncond := []Op{OpJmp, OpJr, OpCall, OpRet}
	for _, o := range cond {
		if !o.IsBranch() || !o.IsCondBranch() {
			t.Errorf("%s misclassified", o)
		}
	}
	for _, o := range uncond {
		if !o.IsBranch() || o.IsCondBranch() {
			t.Errorf("%s misclassified", o)
		}
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpAdd.IsMem() {
		t.Error("memory classification broken")
	}
}

func TestWritesReg(t *testing.T) {
	cases := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: OpAdd, Rd: 5}, true},
		{Inst{Op: OpAdd, Rd: RegZero}, false},
		{Inst{Op: OpLoad, Rd: 5}, true},
		{Inst{Op: OpStore, Rs1: 5, Rs2: 6}, false},
		{Inst{Op: OpCall, Rd: RegLink}, true},
		{Inst{Op: OpJmp}, false},
		{Inst{Op: OpNop}, false},
		{Inst{Op: OpHalt}, false},
		{Inst{Op: OpFMul, Rd: 9}, true},
	}
	for _, c := range cases {
		if got := c.in.WritesReg(); got != c.want {
			t.Errorf("%s: WritesReg=%v, want %v", c.in.String(), got, c.want)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	var buf [2]uint8
	if got := (&Inst{Op: OpStore, Rs1: 3, Rs2: 4}).SrcRegs(buf[:0]); len(got) != 2 {
		t.Errorf("store should read two registers, got %v", got)
	}
	if got := (&Inst{Op: OpLoad, Rs1: 3}).SrcRegs(buf[:0]); len(got) != 1 || got[0] != 3 {
		t.Errorf("load should read base register, got %v", got)
	}
	if got := (&Inst{Op: OpJmp}).SrcRegs(buf[:0]); len(got) != 0 {
		t.Errorf("jmp reads no registers, got %v", got)
	}
	if got := (&Inst{Op: OpLui, Rd: 1}).SrcRegs(buf[:0]); len(got) != 0 {
		t.Errorf("lui reads no registers, got %v", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int64) bool {
		in := Inst{Op: Op(op % uint8(NumOps)), Rd: rd % NumRegs, Rs1: rs1 % NumRegs, Rs2: rs2 % NumRegs, Imm: imm}
		var buf [InstBytes]byte
		EncodeInst(in, buf[:])
		got, err := DecodeInst(buf[:])
		return err == nil && got == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsBadInput(t *testing.T) {
	if _, err := DecodeInst(make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	bad := make([]byte, InstBytes)
	bad[0] = 250 // invalid opcode
	if _, err := DecodeInst(bad); err == nil {
		t.Error("invalid opcode accepted")
	}
	if _, err := AppendText(nil, make([]byte, InstBytes+1)); err == nil {
		t.Error("misaligned text accepted")
	}
}

// TestDecodeInstRejectsWhatTheSimulatorsCannotIndex: every encoding
// EncodeInst cannot produce — a register past the register file, or a
// non-zero reserved byte — is refused, one field at a time, while the
// same word with the field in range decodes.
func TestDecodeInstRejectsWhatTheSimulatorsCannotIndex(t *testing.T) {
	var good [InstBytes]byte
	EncodeInst(Inst{Op: OpAdd, Rd: NumRegs - 1, Rs1: 1, Rs2: 2, Imm: -7}, good[:])
	if _, err := DecodeInst(good[:]); err != nil {
		t.Fatalf("valid instruction refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		at   int
		val  byte
	}{
		{"rd = NumRegs", 1, NumRegs},
		{"rd = 255", 1, 255},
		{"rs1 = NumRegs", 2, NumRegs},
		{"rs1 = 200", 2, 200},
		{"rs2 = NumRegs", 3, NumRegs},
		{"rs2 = 128", 3, 128},
		{"reserved byte 4", 4, 1},
		{"reserved byte 5", 5, 0x80},
		{"reserved byte 6", 6, 1},
		{"reserved byte 7", 7, 0xff},
	} {
		bad := good
		bad[tc.at] = tc.val
		if in, err := DecodeInst(bad[:]); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", tc.name, in)
		}
		if _, err := AppendText(nil, append(good[:], bad[:]...)); err == nil || !strings.Contains(err.Error(), "instruction 1") {
			t.Errorf("%s: text with it as its second instruction: %v", tc.name, err)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	text := []Inst{
		{Op: OpLui, Rd: 1, Imm: 12345},
		{Op: OpLoad, Rd: 2, Rs1: 1, Imm: -8},
		{Op: OpBne, Rs1: 2, Rs2: 0, Imm: 7},
		{Op: OpHalt},
	}
	got, err := AppendText(nil, EncodeText(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(text) {
		t.Fatalf("length %d, want %d", len(got), len(text))
	}
	for i := range text {
		if got[i] != text[i] {
			t.Fatalf("instruction %d: %v != %v", i, got[i], text[i])
		}
	}
}

func TestPCAddrConversion(t *testing.T) {
	for _, pc := range []uint64{0, 1, 1000, 1 << 20} {
		if AddrToPC(PCToAddr(pc)) != pc {
			t.Fatalf("pc %d does not round-trip", pc)
		}
	}
	if PCToAddr(0) != TextBase {
		t.Error("pc 0 should map to the text base")
	}
}
