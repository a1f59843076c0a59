package vm

import (
	"encoding/binary"
	"math"
	"math/bits"

	"aqe/internal/rt"
)

// Run interprets the program with the given arguments, returning the raw
// result register. The interpreter is the paper's Fig. 8 loop: a single
// switch over statically typed, fixed-length opcodes operating on a flat
// register file, with all memory traffic going through the segmented query
// address space — so it performs exactly the same work as compiled code
// and execution can switch between the two at any morsel boundary.
//
// Runtime faults (overflow, division by zero) are raised as rt.Trap panics
// and recovered at the engine's dispatch boundary.
func (p *Program) Run(ctx *rt.Ctx, args []uint64) uint64 {
	regs := ctx.Regs(p.NumRegs)
	copy(regs, p.ConstPool)
	copy(regs[p.ParamBase:], args)
	mem := ctx.Mem
	code := p.Code
	pc := 0
	for {
		in := &code[pc]
		pc++
		switch in.Op {
		case OpNop:
		case OpMov:
			regs[in.A] = regs[in.B]

		case OpAddI64:
			regs[in.A] = regs[in.B] + regs[in.C]
		case OpSubI64:
			regs[in.A] = regs[in.B] - regs[in.C]
		case OpMulI64:
			regs[in.A] = regs[in.B] * regs[in.C]
		case OpSDivI64:
			d := int64(regs[in.C])
			if d == 0 {
				rt.Throw(rt.TrapDivZero)
			}
			n := int64(regs[in.B])
			if n == math.MinInt64 && d == -1 {
				rt.Throw(rt.TrapOverflow)
			}
			regs[in.A] = uint64(n / d)
		case OpSRemI64:
			d := int64(regs[in.C])
			if d == 0 {
				rt.Throw(rt.TrapDivZero)
			}
			n := int64(regs[in.B])
			if n == math.MinInt64 && d == -1 {
				regs[in.A] = 0
			} else {
				regs[in.A] = uint64(n % d)
			}
		case OpUDivI64:
			if regs[in.C] == 0 {
				rt.Throw(rt.TrapDivZero)
			}
			regs[in.A] = regs[in.B] / regs[in.C]
		case OpURemI64:
			if regs[in.C] == 0 {
				rt.Throw(rt.TrapDivZero)
			}
			regs[in.A] = regs[in.B] % regs[in.C]

		case OpAddF64:
			regs[in.A] = math.Float64bits(math.Float64frombits(regs[in.B]) + math.Float64frombits(regs[in.C]))
		case OpSubF64:
			regs[in.A] = math.Float64bits(math.Float64frombits(regs[in.B]) - math.Float64frombits(regs[in.C]))
		case OpMulF64:
			regs[in.A] = math.Float64bits(math.Float64frombits(regs[in.B]) * math.Float64frombits(regs[in.C]))
		case OpDivF64:
			regs[in.A] = math.Float64bits(math.Float64frombits(regs[in.B]) / math.Float64frombits(regs[in.C]))

		case OpAnd64:
			regs[in.A] = regs[in.B] & regs[in.C]
		case OpOr64:
			regs[in.A] = regs[in.B] | regs[in.C]
		case OpXor64:
			regs[in.A] = regs[in.B] ^ regs[in.C]
		case OpShl64:
			regs[in.A] = regs[in.B] << (regs[in.C] & 63)
		case OpLShr64:
			regs[in.A] = regs[in.B] >> (regs[in.C] & 63)
		case OpAShr64:
			regs[in.A] = uint64(int64(regs[in.B]) >> (regs[in.C] & 63))

		case OpCmpEqI64:
			regs[in.A] = b2u(regs[in.B] == regs[in.C])
		case OpCmpNeI64:
			regs[in.A] = b2u(regs[in.B] != regs[in.C])
		case OpCmpSLtI64:
			regs[in.A] = b2u(int64(regs[in.B]) < int64(regs[in.C]))
		case OpCmpSLeI64:
			regs[in.A] = b2u(int64(regs[in.B]) <= int64(regs[in.C]))
		case OpCmpSGtI64:
			regs[in.A] = b2u(int64(regs[in.B]) > int64(regs[in.C]))
		case OpCmpSGeI64:
			regs[in.A] = b2u(int64(regs[in.B]) >= int64(regs[in.C]))
		case OpCmpULtI64:
			regs[in.A] = b2u(regs[in.B] < regs[in.C])
		case OpCmpULeI64:
			regs[in.A] = b2u(regs[in.B] <= regs[in.C])
		case OpCmpUGtI64:
			regs[in.A] = b2u(regs[in.B] > regs[in.C])
		case OpCmpUGeI64:
			regs[in.A] = b2u(regs[in.B] >= regs[in.C])

		case OpCmpEqF64:
			regs[in.A] = b2u(math.Float64frombits(regs[in.B]) == math.Float64frombits(regs[in.C]))
		case OpCmpNeF64:
			regs[in.A] = b2u(math.Float64frombits(regs[in.B]) != math.Float64frombits(regs[in.C]))
		case OpCmpLtF64:
			regs[in.A] = b2u(math.Float64frombits(regs[in.B]) < math.Float64frombits(regs[in.C]))
		case OpCmpLeF64:
			regs[in.A] = b2u(math.Float64frombits(regs[in.B]) <= math.Float64frombits(regs[in.C]))
		case OpCmpGtF64:
			regs[in.A] = b2u(math.Float64frombits(regs[in.B]) > math.Float64frombits(regs[in.C]))
		case OpCmpGeF64:
			regs[in.A] = b2u(math.Float64frombits(regs[in.B]) >= math.Float64frombits(regs[in.C]))

		case OpSAddOvf:
			r, o := AddOverflow(int64(regs[in.B]), int64(regs[in.C]))
			regs[in.A] = uint64(r)
			regs[in.A+1] = b2u(o)
		case OpSSubOvf:
			r, o := SubOverflow(int64(regs[in.B]), int64(regs[in.C]))
			regs[in.A] = uint64(r)
			regs[in.A+1] = b2u(o)
		case OpSMulOvf:
			r, o := MulOverflow(int64(regs[in.B]), int64(regs[in.C]))
			regs[in.A] = uint64(r)
			regs[in.A+1] = b2u(o)

		case OpSAddOvfBr:
			r, o := AddOverflow(int64(regs[in.B]), int64(regs[in.C]))
			regs[in.A] = uint64(r)
			if o {
				pc = int(in.Lit >> 32)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpSSubOvfBr:
			r, o := SubOverflow(int64(regs[in.B]), int64(regs[in.C]))
			regs[in.A] = uint64(r)
			if o {
				pc = int(in.Lit >> 32)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpSMulOvfBr:
			r, o := MulOverflow(int64(regs[in.B]), int64(regs[in.C]))
			regs[in.A] = uint64(r)
			if o {
				pc = int(in.Lit >> 32)
			} else {
				pc = int(uint32(in.Lit))
			}

		case OpSExt8:
			regs[in.A] = uint64(int64(int8(regs[in.B])))
		case OpSExt16:
			regs[in.A] = uint64(int64(int16(regs[in.B])))
		case OpSExt32:
			regs[in.A] = uint64(int64(int32(regs[in.B])))
		case OpTrunc8:
			regs[in.A] = regs[in.B] & 0xff
		case OpTrunc16:
			regs[in.A] = regs[in.B] & 0xffff
		case OpTrunc32:
			regs[in.A] = regs[in.B] & 0xffffffff
		case OpSIToFP:
			regs[in.A] = math.Float64bits(float64(int64(regs[in.B])))
		case OpFPToSI:
			regs[in.A] = uint64(int64(math.Float64frombits(regs[in.B])))

		case OpLoadI8:
			a := regs[in.B]
			regs[in.A] = uint64(mem.Seg(a)[0])
		case OpLoadI16:
			a := regs[in.B]
			regs[in.A] = uint64(binary.LittleEndian.Uint16(mem.Seg(a)))
		case OpLoadI32:
			a := regs[in.B]
			regs[in.A] = uint64(binary.LittleEndian.Uint32(mem.Seg(a)))
		case OpLoadI64:
			a := regs[in.B]
			regs[in.A] = binary.LittleEndian.Uint64(mem.Seg(a))
		case OpStoreI8:
			a := regs[in.B]
			mem.Seg(a)[0] = byte(regs[in.A])
		case OpStoreI16:
			a := regs[in.B]
			binary.LittleEndian.PutUint16(mem.Seg(a), uint16(regs[in.A]))
		case OpStoreI32:
			a := regs[in.B]
			binary.LittleEndian.PutUint32(mem.Seg(a), uint32(regs[in.A]))
		case OpStoreI64:
			a := regs[in.B]
			binary.LittleEndian.PutUint64(mem.Seg(a), regs[in.A])

		case OpLoadIdxI8:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			regs[in.A] = uint64(mem.Seg(a)[0])
		case OpLoadIdxI16:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			regs[in.A] = uint64(binary.LittleEndian.Uint16(mem.Seg(a)))
		case OpLoadIdxI32:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			regs[in.A] = uint64(binary.LittleEndian.Uint32(mem.Seg(a)))
		case OpLoadIdxI64:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			regs[in.A] = binary.LittleEndian.Uint64(mem.Seg(a))
		case OpStoreIdxI8:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			mem.Seg(a)[0] = byte(regs[in.A])
		case OpStoreIdxI16:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			binary.LittleEndian.PutUint16(mem.Seg(a), uint16(regs[in.A]))
		case OpStoreIdxI32:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			binary.LittleEndian.PutUint32(mem.Seg(a), uint32(regs[in.A]))
		case OpStoreIdxI64:
			a := regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))
			binary.LittleEndian.PutUint64(mem.Seg(a), regs[in.A])

		case OpLea:
			regs[in.A] = regs[in.B] + regs[in.C]*(in.Lit>>32) + uint64(int64(int32(uint32(in.Lit))))

		case OpSelect:
			if regs[in.B] != 0 {
				regs[in.A] = regs[in.C]
			} else {
				regs[in.A] = regs[in.Lit]
			}

		case OpJmp:
			pc = int(in.A)
		case OpJmpIf:
			if regs[in.A] != 0 {
				pc = int(in.B)
			} else {
				pc = int(in.C)
			}

		case OpJEqI64:
			if regs[in.A] == regs[in.B] {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJNeI64:
			if regs[in.A] != regs[in.B] {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJSLtI64:
			if int64(regs[in.A]) < int64(regs[in.B]) {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJSLeI64:
			if int64(regs[in.A]) <= int64(regs[in.B]) {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJSGtI64:
			if int64(regs[in.A]) > int64(regs[in.B]) {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJSGeI64:
			if int64(regs[in.A]) >= int64(regs[in.B]) {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJULtI64:
			if regs[in.A] < regs[in.B] {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJULeI64:
			if regs[in.A] <= regs[in.B] {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJUGtI64:
			if regs[in.A] > regs[in.B] {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}
		case OpJUGeI64:
			if regs[in.A] >= regs[in.B] {
				pc = int(in.C)
			} else {
				pc = int(uint32(in.Lit))
			}

		case OpArg:
			ctx.Args[in.A] = regs[in.B]
		case OpCall:
			r := ctx.Funcs[in.Lit](ctx, ctx.Args[:in.B])
			if in.A >= 0 {
				regs[in.A] = r
			}

		case OpRet:
			return regs[in.A]
		case OpRetVoid:
			return 0

		default:
			panic("vm: bad opcode")
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AddOverflow returns x+y and whether the signed addition overflowed.
func AddOverflow(x, y int64) (int64, bool) {
	r := x + y
	return r, (x^r)&(y^r) < 0
}

// SubOverflow returns x-y and whether the signed subtraction overflowed.
func SubOverflow(x, y int64) (int64, bool) {
	r := x - y
	return r, (x^y)&(x^r) < 0
}

// MulOverflow returns x*y and whether the signed multiplication
// overflowed, using the full 128-bit product (no division).
func MulOverflow(x, y int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	r := int64(lo)
	// Adjust the unsigned high word to the signed high word.
	shi := int64(hi) - ((x >> 63) & y) - ((y >> 63) & x)
	return r, shi != r>>63
}
