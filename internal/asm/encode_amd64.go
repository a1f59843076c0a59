//go:build amd64 && (linux || darwin)

package asm

import "encoding/binary"

// Pure-Go amd64 instruction encoder: just the subset the IR op templates
// need, emitted into a flat byte buffer with two-pass rel32 label
// patching. Registers are their hardware numbers (RAX=0 .. R15=15).

// General-purpose register numbers.
const (
	rAX = 0
	rCX = 1
	rDX = 2
	rBX = 3 // pinned: segment count
	rSP = 4
	rBP = 5
	rSI = 6
	rDI = 7
	r8  = 8
	r9  = 9
	r10 = 10
	r11 = 11
	r12 = 12 // pinned: register-file base
	r13 = 13 // pinned: *nativeCtx
	r14 = 14 // avoided: Go's g register
	r15 = 15 // pinned: segment-table base
)

// Condition-code nibbles (Jcc = 0F 80+cc, SETcc = 0F 90+cc).
const (
	ccO  = 0x0
	ccB  = 0x2 // unsigned <
	ccAE = 0x3 // unsigned >=
	ccE  = 0x4
	ccNE = 0x5
	ccBE = 0x6 // unsigned <=
	ccA  = 0x7 // unsigned >
	ccP  = 0xa
	ccNP = 0xb
	ccL  = 0xc // signed <
	ccGE = 0xd // signed >=
	ccLE = 0xe // signed <=
	ccG  = 0xf // signed >
)

// mem is a memory operand [base + index*scale + disp]; index < 0 means no
// index, and base < 0 no base ([index*scale + disp32], which LEA uses to
// scale an index by itself). R13 as base always takes a displacement byte
// (hardware quirk shared with RBP), which the emitter handles.
type mem struct {
	base  int
	index int
	scale byte // 1, 2, 4, 8
	disp  int32
}

func memBD(base int, disp int32) mem { return mem{base: base, index: -1, disp: disp} }

// slotMem addresses register-file slot s: [R12 + s*8].
func slotMem(s int) mem { return memBD(r12, int32(s)*8) }

type fixup struct {
	at, label int32 // offset of the rel32 field, label it points to
}

type asmBuf struct {
	buf    []byte
	labels []int32 // label -> bound offset, -1 while unbound
	fixups []fixup
}

// newAsmBuf returns a buffer sized for about size code bytes, labels
// labels and fixups label references.
func newAsmBuf(size, labels, fixups int) *asmBuf {
	return &asmBuf{buf: make([]byte, 0, size), labels: make([]int32, 0, labels), fixups: make([]fixup, 0, fixups)}
}

func (a *asmBuf) pos() int32 { return int32(len(a.buf)) }

func (a *asmBuf) byte(bs ...byte) { a.buf = append(a.buf, bs...) }

func (a *asmBuf) u32(v uint32) { a.buf = binary.LittleEndian.AppendUint32(a.buf, v) }

func (a *asmBuf) u64(v uint64) { a.buf = binary.LittleEndian.AppendUint64(a.buf, v) }

func (a *asmBuf) label() int {
	a.labels = append(a.labels, -1)
	return len(a.labels) - 1
}

func (a *asmBuf) bind(l int) { a.labels[l] = a.pos() }

// stencil is a pre-encoded instruction sequence whose rel32 fields, at
// offsets rel, all point at one label chosen when it is stamped.
type stencil struct {
	code []byte
	rel  []int32
}

// stencil returns the buffer's bytes as a stencil; every label reference
// in it becomes a hole.
func (a *asmBuf) stencil() stencil {
	st := stencil{code: a.buf}
	for _, f := range a.fixups {
		st.rel = append(st.rel, f.at)
	}
	return st
}

// stamp emits a copy of st with its holes pointing at label l.
func (a *asmBuf) stamp(st *stencil, l int) {
	at := a.pos()
	a.buf = append(a.buf, st.code...)
	for _, r := range st.rel {
		a.fixups = append(a.fixups, fixup{at: at + r, label: int32(l)})
	}
}

// rel32 emits a 4-byte placeholder to be patched with (target - end).
func (a *asmBuf) rel32(l int) {
	a.fixups = append(a.fixups, fixup{at: a.pos(), label: int32(l)})
	a.u32(0)
}

// finish patches all label references and returns the code bytes. All
// displacements are relative, so the result is position-independent and
// can be copied into executable memory as-is.
func (a *asmBuf) finish() []byte {
	for _, f := range a.fixups {
		target := a.labels[f.label]
		binary.LittleEndian.PutUint32(a.buf[f.at:], uint32(target-(f.at+4)))
	}
	return a.buf
}

// rex emits a REX prefix when required. reg/index/base are the extended
// register fields (-1 when absent).
func (a *asmBuf) rex(w bool, reg, index, base int) {
	var b byte = 0x40
	if w {
		b |= 8
	}
	if reg >= 8 {
		b |= 4
	}
	if index >= 8 {
		b |= 2
	}
	if base >= 8 {
		b |= 1
	}
	if b != 0x40 || w {
		a.byte(b)
	}
}

// rex8 is rex for instructions with an 8-bit register operand: SPL/BPL/
// SIL/DIL (4..7) need an empty REX prefix to be addressable (a spurious
// 0x40 for a 64-bit address base in that range is legal and ignored).
func (a *asmBuf) rex8(reg, index, base int) {
	var b byte = 0x40
	if reg >= 8 {
		b |= 4
	}
	if index >= 8 {
		b |= 2
	}
	if base >= 8 {
		b |= 1
	}
	if b != 0x40 || (reg >= 4 && reg <= 7) || (base >= 4 && base <= 7) {
		a.byte(b)
	}
}

// modrmMem emits the ModRM/SIB/disp bytes for a reg, mem operand pair.
func (a *asmBuf) modrmMem(reg int, m mem) {
	regBits := byte(reg&7) << 3
	if m.base < 0 {
		// mod 00 with SIB base 101: no base register, always a disp32.
		a.byte(regBits|4, scaleBits(m.scale)|byte(m.index&7)<<3|5)
		a.u32(uint32(m.disp))
		return
	}
	base := m.base & 7
	needSIB := m.index >= 0 || base == 4 // RSP/R12 base requires SIB
	// RBP/R13 base has no disp-less form.
	var mod byte
	switch {
	case m.disp == 0 && base != 5:
		mod = 0x00
	case m.disp >= -128 && m.disp <= 127:
		mod = 0x40
	default:
		mod = 0x80
	}
	if needSIB {
		a.byte(mod | regBits | 4)
		ss := scaleBits(m.scale)
		idx := byte(4) // none
		if m.index >= 0 {
			idx = byte(m.index & 7)
		}
		a.byte(ss | idx<<3 | byte(base))
	} else {
		a.byte(mod | regBits | byte(base))
	}
	switch mod {
	case 0x40:
		a.byte(byte(m.disp))
	case 0x80:
		a.u32(uint32(m.disp))
	}
}

// scaleBits is the SIB byte's scale field for an index scale of 1, 2, 4
// or 8.
func scaleBits(scale byte) byte {
	switch scale {
	case 2:
		return 1 << 6
	case 4:
		return 2 << 6
	case 8:
		return 3 << 6
	}
	return 0
}

func (a *asmBuf) modrmReg(reg, rm int) {
	a.byte(0xc0 | byte(reg&7)<<3 | byte(rm&7))
}

// --- moves ---

// movRegImm64 loads an immediate, using the shortest encoding.
func (a *asmBuf) movRegImm64(r int, v uint64) {
	switch {
	case v == 0:
		a.rex(false, r, -1, r) // xor r32, r32 zero-extends
		a.byte(0x31)
		a.modrmReg(r, r)
	case v <= 0xffffffff:
		a.rex(false, -1, -1, r) // mov r32, imm32 zero-extends
		a.byte(0xb8 + byte(r&7))
		a.u32(uint32(v))
	case int64(v) >= -0x80000000 && int64(v) < 0:
		a.rex(true, -1, -1, r) // mov r64, imm32 sign-extends
		a.byte(0xc7)
		a.modrmReg(0, r)
		a.u32(uint32(v))
	default:
		a.rex(true, -1, -1, r) // movabs
		a.byte(0xb8 + byte(r&7))
		a.u64(v)
	}
}

// movRegImm64NF is movRegImm64 without the XOR zero idiom, for contexts
// where the condition flags must survive (fused CMP → CMOVcc/Jcc
// sequences): every encoding it picks is a MOV.
func (a *asmBuf) movRegImm64NF(r int, v uint64) {
	if v == 0 {
		a.rex(false, -1, -1, r) // mov r32, 0 zero-extends, flags untouched
		a.byte(0xb8 + byte(r&7))
		a.u32(0)
		return
	}
	a.movRegImm64(r, v)
}

func (a *asmBuf) movRegReg(dst, src int) {
	a.rex(true, src, -1, dst)
	a.byte(0x89)
	a.modrmReg(src, dst)
}

func (a *asmBuf) movRegMem(dst int, m mem) {
	a.rex(true, dst, m.index, m.base)
	a.byte(0x8b)
	a.modrmMem(dst, m)
}

func (a *asmBuf) movMemReg(m mem, src int) {
	a.rex(true, src, m.index, m.base)
	a.byte(0x89)
	a.modrmMem(src, m)
}

// movMemImm32 stores a sign-extended 32-bit immediate to a qword.
func (a *asmBuf) movMemImm32(m mem, v int32) {
	a.rex(true, -1, m.index, m.base)
	a.byte(0xc7)
	a.modrmMem(0, m)
	a.u32(uint32(v))
}

// Narrow loads (all zero-extend into the full register).
func (a *asmBuf) movzxRegMem8(dst int, m mem) {
	a.rex(true, dst, m.index, m.base)
	a.byte(0x0f, 0xb6)
	a.modrmMem(dst, m)
}

func (a *asmBuf) movzxRegMem16(dst int, m mem) {
	a.rex(true, dst, m.index, m.base)
	a.byte(0x0f, 0xb7)
	a.modrmMem(dst, m)
}

func (a *asmBuf) movRegMem32(dst int, m mem) {
	a.rex(false, dst, m.index, m.base)
	a.byte(0x8b)
	a.modrmMem(dst, m)
}

// Narrow stores.
func (a *asmBuf) movMemReg8(m mem, src int) {
	a.rex8(src, m.index, m.base)
	a.byte(0x88)
	a.modrmMem(src, m)
}

func (a *asmBuf) movMemReg16(m mem, src int) {
	a.byte(0x66)
	a.rex(false, src, m.index, m.base)
	a.byte(0x89)
	a.modrmMem(src, m)
}

func (a *asmBuf) movMemReg32(m mem, src int) {
	a.rex(false, src, m.index, m.base)
	a.byte(0x89)
	a.modrmMem(src, m)
}

// --- integer ALU ---

// aluOp is the opcode byte of the reg,reg form; the /n extension of the
// imm form is derived from it (they share the operation index).
type aluOp byte

const (
	aluAdd aluOp = 0x01
	aluOr  aluOp = 0x09
	aluAnd aluOp = 0x21
	aluSub aluOp = 0x29
	aluXor aluOp = 0x31
	aluCmp aluOp = 0x39
)

func (a *asmBuf) aluRegReg(op aluOp, dst, src int) {
	a.rex(true, src, -1, dst)
	a.byte(byte(op))
	a.modrmReg(src, dst)
}

// aluRegMem is the reg, r/m form (opcode|2): e.g. cmp reg, [mem].
func (a *asmBuf) aluRegMem(op aluOp, reg int, m mem) {
	a.rex(true, reg, m.index, m.base)
	a.byte(byte(op) | 2)
	a.modrmMem(reg, m)
}

func (a *asmBuf) aluRegImm32(op aluOp, dst int, v int32) {
	ext := int(op) >> 3 // /0 add, /1 or, /4 and, /5 sub, /6 xor, /7 cmp
	a.rex(true, -1, -1, dst)
	if v >= -128 && v <= 127 {
		a.byte(0x83)
		a.modrmReg(ext, dst)
		a.byte(byte(v))
	} else {
		a.byte(0x81)
		a.modrmReg(ext, dst)
		a.u32(uint32(v))
	}
}

// aluMemImm32 is the r/m, imm form on a qword in memory: e.g. cmp
// qword [mem], imm (sign-extended).
func (a *asmBuf) aluMemImm32(op aluOp, m mem, v int32) {
	ext := int(op) >> 3
	a.rex(true, -1, m.index, m.base)
	if v >= -128 && v <= 127 {
		a.byte(0x83)
		a.modrmMem(ext, m)
		a.byte(byte(v))
	} else {
		a.byte(0x81)
		a.modrmMem(ext, m)
		a.u32(uint32(v))
	}
}

func (a *asmBuf) imulRegReg(dst, src int) {
	a.rex(true, dst, -1, src)
	a.byte(0x0f, 0xaf)
	a.modrmReg(dst, src)
}

// imulRegMem multiplies dst by a memory operand.
func (a *asmBuf) imulRegMem(dst int, m mem) {
	a.rex(true, dst, m.index, m.base)
	a.byte(0x0f, 0xaf)
	a.modrmMem(dst, m)
}

// imulRegRegImm32 computes dst = src * imm32.
func (a *asmBuf) imulRegRegImm32(dst, src int, v int32) {
	a.rex(true, dst, -1, src)
	a.byte(0x69)
	a.modrmReg(dst, src)
	a.u32(uint32(v))
}

func (a *asmBuf) testRegReg(x, y int) {
	a.rex(true, y, -1, x)
	a.byte(0x85)
	a.modrmReg(y, x)
}

// shiftCL shifts dst by CL: ext 4=shl, 5=shr, 7=sar.
func (a *asmBuf) shiftCL(ext, dst int) {
	a.rex(true, -1, -1, dst)
	a.byte(0xd3)
	a.modrmReg(ext, dst)
}

// shiftImm shifts dst by a constant count.
func (a *asmBuf) shiftImm(ext, dst int, n byte) {
	a.rex(true, -1, -1, dst)
	a.byte(0xc1)
	a.modrmReg(ext, dst)
	a.byte(n)
}

func (a *asmBuf) cqo() { a.byte(0x48, 0x99) }

func (a *asmBuf) idivReg(r int) {
	a.rex(true, -1, -1, r)
	a.byte(0xf7)
	a.modrmReg(7, r)
}

func (a *asmBuf) divReg(r int) {
	a.rex(true, -1, -1, r)
	a.byte(0xf7)
	a.modrmReg(6, r)
}

func (a *asmBuf) setcc(cc byte, r int) {
	a.rex8(-1, -1, r)
	a.byte(0x0f, 0x90+cc)
	a.modrmReg(0, r)
}

// movzxRegReg8 zero-extends the low byte of src into dst (full width).
func (a *asmBuf) movzxRegReg8(dst, src int) {
	a.rex8(dst, -1, src)
	a.byte(0x0f, 0xb6)
	a.modrmReg(dst, src)
}

func (a *asmBuf) movzxRegReg16(dst, src int) {
	a.rex(false, dst, -1, src)
	a.byte(0x0f, 0xb7)
	a.modrmReg(dst, src)
}

func (a *asmBuf) movsxRegReg8(dst, src int) {
	a.rex(true, dst, -1, src)
	a.byte(0x0f, 0xbe)
	a.modrmReg(dst, src)
}

func (a *asmBuf) movsxRegReg16(dst, src int) {
	a.rex(true, dst, -1, src)
	a.byte(0x0f, 0xbf)
	a.modrmReg(dst, src)
}

func (a *asmBuf) movsxdRegReg(dst, src int) {
	a.rex(true, dst, -1, src)
	a.byte(0x63)
	a.modrmReg(dst, src)
}

// movRegReg32 copies the low 32 bits, zero-extending (mov dst32, src32).
func (a *asmBuf) movRegReg32(dst, src int) {
	a.rex(false, src, -1, dst)
	a.byte(0x89)
	a.modrmReg(src, dst)
}

func (a *asmBuf) cmovcc(cc byte, dst, src int) {
	a.rex(true, dst, -1, src)
	a.byte(0x0f, 0x40+cc)
	a.modrmReg(dst, src)
}

func (a *asmBuf) leaRegMem(dst int, m mem) {
	a.rex(true, dst, m.index, m.base)
	a.byte(0x8d)
	a.modrmMem(dst, m)
}

// leaRIP computes the absolute address of a label: lea dst, [rip+rel32].
func (a *asmBuf) leaRIP(dst int, l int) {
	a.rex(true, dst, -1, -1)
	a.byte(0x8d)
	a.byte(byte(dst&7)<<3 | 0x05)
	a.rel32(l)
}

// --- control flow ---

func (a *asmBuf) jcc(cc byte, l int) {
	a.byte(0x0f, 0x80+cc)
	a.rel32(l)
}

func (a *asmBuf) jmp(l int) {
	a.byte(0xe9)
	a.rel32(l)
}

func (a *asmBuf) ret() { a.byte(0xc3) }

// --- SSE2 scalar double ---

// sseOp is the third opcode byte of the F2 0F xx scalar-double group.
type sseOp byte

const (
	sseAdd sseOp = 0x58
	sseMul sseOp = 0x59
	sseSub sseOp = 0x5c
	sseDiv sseOp = 0x5e
)

func (a *asmBuf) movsdLoad(x int, m mem) {
	a.byte(0xf2)
	a.rex(false, x, m.index, m.base)
	a.byte(0x0f, 0x10)
	a.modrmMem(x, m)
}

func (a *asmBuf) movsdStore(m mem, x int) {
	a.byte(0xf2)
	a.rex(false, x, m.index, m.base)
	a.byte(0x0f, 0x11)
	a.modrmMem(x, m)
}

// movqXR moves a GP register into an XMM register.
func (a *asmBuf) movqXR(x, r int) {
	a.byte(0x66)
	a.rex(true, x, -1, r)
	a.byte(0x0f, 0x6e)
	a.modrmReg(x, r)
}

// movqRX moves an XMM register into a GP register.
func (a *asmBuf) movqRX(r, x int) {
	a.byte(0x66)
	a.rex(true, x, -1, r)
	a.byte(0x0f, 0x7e)
	a.modrmReg(x, r)
}

// movsdRegReg copies a scalar double between XMM registers. Encoded as
// MOVAPS: the scalar MOVSD xmm,xmm form merges into the destination's
// upper lanes and so carries a false dependency on the register's
// previous contents — with long-lived allocator pool registers that
// serializes unrelated arithmetic behind whatever last wrote dst (a
// divide chain, typically). MOVAPS writes the full register.
func (a *asmBuf) movsdRegReg(dst, src int) {
	a.rex(false, dst, -1, src)
	a.byte(0x0f, 0x28)
	a.modrmReg(dst, src)
}

// xorps zeroes an XMM register (dependency-breaking idiom: recognized by
// the renamer, so it also severs false output dependencies).
func (a *asmBuf) xorps(x int) {
	a.rex(false, x, -1, x)
	a.byte(0x0f, 0x57)
	a.modrmReg(x, x)
}

func (a *asmBuf) sseArith(op sseOp, dst, src int) {
	a.byte(0xf2)
	a.rex(false, dst, -1, src)
	a.byte(0x0f, byte(op))
	a.modrmReg(dst, src)
}

func (a *asmBuf) ucomisd(x, y int) {
	a.byte(0x66)
	a.rex(false, x, -1, y)
	a.byte(0x0f, 0x2e)
	a.modrmReg(x, y)
}

func (a *asmBuf) cvtsi2sd(x, r int) {
	a.byte(0xf2)
	a.rex(true, x, -1, r)
	a.byte(0x0f, 0x2a)
	a.modrmReg(x, r)
}

func (a *asmBuf) cvttsd2si(r, x int) {
	a.byte(0xf2)
	a.rex(true, r, -1, x)
	a.byte(0x0f, 0x2c)
	a.modrmReg(r, x)
}

// andRegReg8 ands the low bytes (for FCmp eq/ne flag recipes).
func (a *asmBuf) andRegReg8(dst, src int) {
	a.rex8(src, -1, dst)
	a.byte(0x20)
	a.modrmReg(src, dst)
}

func (a *asmBuf) orRegReg8(dst, src int) {
	a.rex8(src, -1, dst)
	a.byte(0x08)
	a.modrmReg(src, dst)
}
