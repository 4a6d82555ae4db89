// Package isa defines the synthetic 64-bit RISC instruction set executed by
// both the functional and the detailed simulators.
//
// The ISA deliberately mirrors the subset of a classic RISC (Alpha-like)
// machine that matters for warming studies: integer and floating-point
// arithmetic with distinct functional-unit classes and latencies, loads and
// stores with base+displacement addressing, conditional branches, direct and
// indirect jumps, and call/return for return-address-stack behaviour.
//
// Instructions are held pre-decoded in memory as Inst values. A fixed-width
// 16-byte binary encoding (see codec.go) is used when instruction text is
// stored inside live-points, so that a live-point is a self-contained byte
// artifact exactly as in the paper.
package isa

import "fmt"

// Op enumerates the operations of the synthetic ISA.
type Op uint8

// Operation codes. The order groups operations by functional-unit class;
// see Class for the mapping.
const (
	// OpNop performs no work but still occupies pipeline slots.
	OpNop Op = iota

	// Integer ALU operations (class ClassIntALU).
	OpAdd  // rd = rs1 + rs2
	OpSub  // rd = rs1 - rs2
	OpAnd  // rd = rs1 & rs2
	OpOr   // rd = rs1 | rs2
	OpXor  // rd = rs1 ^ rs2
	OpShl  // rd = rs1 << (rs2 & 63)
	OpShr  // rd = rs1 >> (rs2 & 63)
	OpAddI // rd = rs1 + imm
	OpAndI // rd = rs1 & imm
	OpShlI // rd = rs1 << (imm & 63)
	OpShrI // rd = rs1 >> (imm & 63)
	OpLui  // rd = imm (load immediate)
	OpSlt  // rd = (rs1 < rs2) ? 1 : 0, signed
	OpSltI // rd = (rs1 < imm) ? 1 : 0, signed

	// Integer multiply / divide (class ClassIntMul).
	OpMul // rd = rs1 * rs2
	OpDiv // rd = rs1 / rs2 (signed; divide by zero yields 0)
	OpRem // rd = rs1 % rs2 (signed; modulo zero yields 0)

	// Floating point (bit patterns live in the shared register file).
	OpFAdd // rd = rs1 +. rs2   (class ClassFPALU)
	OpFSub // rd = rs1 -. rs2   (class ClassFPALU)
	OpFMul // rd = rs1 *. rs2   (class ClassFPMul)
	OpFDiv // rd = rs1 /. rs2   (class ClassFPMul)
	OpFCmp // rd = (rs1 <. rs2) ? 1 : 0 (class ClassFPALU)

	// Memory operations (class ClassMem). Effective address rs1 + imm.
	OpLoad  // rd = mem64[rs1+imm]
	OpStore // mem64[rs1+imm] = rs2

	// Control transfer (class ClassBranch).
	OpBeq  // if rs1 == rs2: pc = imm (absolute instruction index)
	OpBne  // if rs1 != rs2: pc = imm
	OpBltz // if int64(rs1) < 0: pc = imm
	OpBgez // if int64(rs1) >= 0: pc = imm
	OpJmp  // pc = imm (unconditional direct)
	OpJr   // pc = rs1 (unconditional indirect)
	OpCall // rd = pc+1; pc = imm (direct call, rd is the link register)
	OpRet  // pc = rs1 (return; semantically Jr but hints the RAS)

	// OpHalt terminates the program.
	OpHalt

	opCount // sentinel; must be last
)

// NumOps is the number of defined operations.
const NumOps = int(opCount)

// Class is the functional-unit class of an operation, which determines
// issue latency and which functional unit pool executes it.
type Class uint8

// Functional-unit classes.
const (
	ClassIntALU Class = iota // single-cycle integer
	ClassIntMul              // integer multiply/divide
	ClassFPALU               // floating-point add/compare
	ClassFPMul               // floating-point multiply/divide
	ClassMem                 // loads and stores (address generation on IntALU port)
	ClassBranch              // control transfer (resolved on an IntALU)
	ClassNone                // nop, halt
)

// NumClasses is the number of functional-unit classes.
const NumClasses = int(ClassNone) + 1

var opClasses = [opCount]Class{
	OpNop:   ClassNone,
	OpAdd:   ClassIntALU,
	OpSub:   ClassIntALU,
	OpAnd:   ClassIntALU,
	OpOr:    ClassIntALU,
	OpXor:   ClassIntALU,
	OpShl:   ClassIntALU,
	OpShr:   ClassIntALU,
	OpAddI:  ClassIntALU,
	OpAndI:  ClassIntALU,
	OpShlI:  ClassIntALU,
	OpShrI:  ClassIntALU,
	OpLui:   ClassIntALU,
	OpSlt:   ClassIntALU,
	OpSltI:  ClassIntALU,
	OpMul:   ClassIntMul,
	OpDiv:   ClassIntMul,
	OpRem:   ClassIntMul,
	OpFAdd:  ClassFPALU,
	OpFSub:  ClassFPALU,
	OpFMul:  ClassFPMul,
	OpFDiv:  ClassFPMul,
	OpFCmp:  ClassFPALU,
	OpLoad:  ClassMem,
	OpStore: ClassMem,
	OpBeq:   ClassBranch,
	OpBne:   ClassBranch,
	OpBltz:  ClassBranch,
	OpBgez:  ClassBranch,
	OpJmp:   ClassBranch,
	OpJr:    ClassBranch,
	OpCall:  ClassBranch,
	OpRet:   ClassBranch,
	OpHalt:  ClassNone,
}

var opNames = [opCount]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpAddI: "addi", OpAndI: "andi",
	OpShlI: "shli", OpShrI: "shri", OpLui: "lui", OpSlt: "slt", OpSltI: "slti",
	OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFCmp: "fcmp",
	OpLoad: "ld", OpStore: "st",
	OpBeq: "beq", OpBne: "bne", OpBltz: "bltz", OpBgez: "bgez",
	OpJmp: "jmp", OpJr: "jr", OpCall: "call", OpRet: "ret",
	OpHalt: "halt",
}

// Class reports the functional-unit class of the operation.
func (o Op) Class() Class {
	if int(o) >= NumOps {
		return ClassNone
	}
	return opClasses[o]
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return int(o) < NumOps }

// String returns the assembler mnemonic of the operation.
func (o Op) String() string {
	if int(o) >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opNames[o]
}

// IsBranch reports whether the operation is any control transfer.
func (o Op) IsBranch() bool { return o.Class() == ClassBranch }

// IsCondBranch reports whether the operation is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBltz, OpBgez:
		return true
	}
	return false
}

// IsMem reports whether the operation accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// NumRegs is the number of architectural registers. Register 0 is hardwired
// to zero, mirroring classic RISC machines.
const NumRegs = 64

// RegZero is the hardwired zero register.
const RegZero = 0

// RegLink is the conventional link register used by generated code for
// call/return sequences.
const RegLink = 63

// Inst is one pre-decoded instruction.
//
// Rd is the destination register (0 if none), Rs1/Rs2 the sources. Imm is an
// immediate operand; for direct control transfer it is an absolute
// instruction index, for memory operations a byte displacement.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int64
}

// WritesReg reports whether the instruction writes Rd.
func (in *Inst) WritesReg() bool {
	switch in.Op.Class() {
	case ClassIntALU, ClassIntMul, ClassFPALU, ClassFPMul:
		return in.Rd != RegZero
	case ClassMem:
		return in.Op == OpLoad && in.Rd != RegZero
	case ClassBranch:
		return in.Op == OpCall && in.Rd != RegZero
	}
	return false
}

// SrcRegs appends the source registers read by the instruction to dst and
// returns the extended slice. Register 0 reads are included (they are free
// but uniform handling keeps the pipeline model simple).
func (in *Inst) SrcRegs(dst []uint8) []uint8 {
	switch in.Op {
	case OpNop, OpHalt, OpLui, OpJmp, OpCall:
		return dst
	case OpAddI, OpAndI, OpShlI, OpShrI, OpSltI, OpLoad, OpBltz, OpBgez, OpJr, OpRet:
		return append(dst, in.Rs1)
	case OpStore:
		return append(dst, in.Rs1, in.Rs2)
	default:
		return append(dst, in.Rs1, in.Rs2)
	}
}

// String renders the instruction in a readable assembler-like form.
func (in *Inst) String() string {
	switch {
	case in.Op == OpNop || in.Op == OpHalt:
		return in.Op.String()
	case in.Op == OpLoad:
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.Rd, in.Rs1, in.Imm)
	case in.Op == OpStore:
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.Rs2, in.Rs1, in.Imm)
	case in.Op.IsCondBranch():
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op == OpJmp:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	case in.Op == OpCall:
		return fmt.Sprintf("%s r%d, @%d", in.Op, in.Rd, in.Imm)
	case in.Op == OpJr || in.Op == OpRet:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	case in.Op == OpLui:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d(%d)", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
}

// InstBytes is the size of one instruction in the simulated address space.
// Instruction fetch, I-cache behaviour and the live-point text sections all
// use this width.
const InstBytes = 16

// TextBase is the base byte address of the text segment in the simulated
// address space. PCToAddr and AddrToPC convert between instruction indices
// (used by the simulators) and byte addresses (used by the I-cache and TLB).
const TextBase = 0x0040_0000

// DataBase is the base byte address of the statically generated data
// segment.
const DataBase = 0x1000_0000

// StackBase is the base byte address of the downward-growing stack region
// used by generated programs.
const StackBase = 0x7fff_0000

// PCToAddr converts an instruction index to its byte address.
func PCToAddr(pc uint64) uint64 { return TextBase + pc*InstBytes }

// AddrToPC converts a text byte address to an instruction index.
func AddrToPC(addr uint64) uint64 { return (addr - TextBase) / InstBytes }
