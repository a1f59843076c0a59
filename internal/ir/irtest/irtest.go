// Package irtest builds random, well-formed IR functions and runs them on
// one fixed memory image, for the differential tests that hold the IR
// interpreter, the bytecode VM and machine code to the same results,
// memory effects, traps and faults.
package irtest

import (
	"fmt"
	"strings"

	"aqe/internal/ir"
	"aqe/internal/rt"
)

// Source is the randomness a generator draws from; *rand.Rand is one.
type Source interface {
	Intn(n int) int
	Uint64() uint64
}

// ScratchBytes is the size of the scratch segment every run maps.
const ScratchBytes = 32 * 8

// Base is the scratch segment's address: a fresh Memory's first segment
// is 1. Generated functions receive it as their third parameter and also
// use it as a constant, so the two kinds of base alias.
const Base = uint64(1) << rt.SegShift

// Func builds f(p0, p1, base): a loop of 2–8 iterations threading an
// accumulator through φ-nodes, whose body is nbody source-selected ops:
// arithmetic, comparisons, selects, float round-trips, and loads and
// stores in every shape the native back end addresses differently — a
// variable index off the parameter base or off the constant base, a
// constant offset off the parameter base or a block-local base derived
// from it, a constant address, and a counter bump through a GEP with two
// uses. Checked add, sub and mul split the body into a chain of blocks;
// each overflows into a trap_overflow block, a block returning a
// sentinel, or a block rejoining the chain. Calls to "reseg" replace the
// scratch segment's bytes mid-chain. After the loop, an overflow-checked
// add returns a sentinel on overflow. Rare indexes and offsets fall
// outside the segment, so some runs fault. Every loaded value reaches the
// accumulator: the optimizing passes delete a load nothing reads, and
// with it the load's fault.
func Func(src Source, nbody int) *ir.Function {
	m := ir.NewModule("gen")
	f := m.NewFunc("f", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	zero := b.ConstI64(0)
	one := b.ConstI64(1)
	iters := b.ConstI64(int64(2 + src.Intn(7)))
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.SLt, i, iters), body, exit)

	b.SetBlock(body)
	pool := []*ir.Value{f.Params[0], f.Params[1], i, acc,
		b.ConstI64(int64(src.Uint64())), b.ConstI64(int64(src.Intn(256)) - 128)}
	pick := func() *ir.Value { return pool[src.Intn(len(pool))] }
	push := func(v *ir.Value) { pool = append(pool, v) }
	var loads []*ir.Value
	load := func(t ir.Type, a *ir.Value) *ir.Value {
		v := b.Load(t, a)
		loads = append(loads, v)
		return v
	}
	base := f.Params[2]
	cbase := b.ConstI64(int64(Base))
	bases := []*ir.Value{base}
	slot := func() *ir.Value {
		if src.Intn(16) == 0 {
			return pick() // past the end, or negative, most of the time
		}
		return b.And(pick(), b.ConstI64(31))
	}
	offset := func() int64 {
		if src.Intn(32) == 0 {
			return ScratchBytes - 4 + int64(src.Intn(8)) // at or past the end
		}
		return 8 * int64(src.Intn(32))
	}
	for k := 0; k < nbody; k++ {
		switch src.Intn(24) {
		case 0:
			push(b.Add(pick(), pick()))
		case 1:
			push(b.Sub(pick(), pick()))
		case 2:
			push(b.Mul(pick(), pick()))
		case 3:
			push(b.Xor(pick(), pick()))
		case 4:
			push(b.And(pick(), pick()))
		case 5:
			push(b.Or(pick(), pick()))
		case 6:
			push(b.LShr(pick(), b.And(pick(), b.ConstI64(63))))
		case 7:
			push(b.Shl(pick(), b.And(pick(), b.ConstI64(63))))
		case 8:
			push(b.AShr(pick(), b.And(pick(), b.ConstI64(63))))
		case 9:
			c := b.ICmp(ir.Pred(src.Intn(10)), pick(), pick())
			push(b.Select(c, pick(), pick()))
		case 10:
			push(b.ZExt(b.ICmp(ir.Pred(src.Intn(6)), pick(), pick()), ir.I64))
		case 11:
			push(b.UDiv(pick(), b.Or(pick(), one))) // nonzero divisor
		case 12:
			d := b.Or(b.And(pick(), b.ConstI64(255)), one) // small positive
			if src.Intn(2) == 0 {
				push(b.SDiv(pick(), d))
			} else {
				push(b.SRem(pick(), d))
			}
		case 13:
			x := b.SIToFP(b.And(pick(), b.ConstI64(0xFFFFF)))
			y := b.SIToFP(b.Or(b.And(pick(), b.ConstI64(0xFF)), one))
			push(b.FPToSI(b.FDiv(b.FAdd(x, y), y)))
		case 14:
			b.Store(b.GEP(base, b.And(pick(), b.ConstI64(31)), 8, 0), pick())
		case 15:
			push(load(ir.I64, b.GEP(base, b.And(pick(), b.ConstI64(31)), 8, 0)))
		case 16: // constant base, variable index
			a := b.GEP(cbase, slot(), 8, 0)
			if src.Intn(2) == 0 {
				push(load(ir.I64, a))
			} else {
				b.Store(a, pick())
			}
		case 17, 18: // constant offset off a parameter or block-local base
			a := b.GEP(bases[src.Intn(len(bases))], zero, 0, offset())
			switch src.Intn(4) {
			case 0:
				push(b.ZExt(load(ir.I32, a), ir.I64))
			case 1:
				b.Store(a, b.Trunc(pick(), ir.I8))
			case 2:
				b.Store(a, pick())
			default:
				push(load(ir.I64, a))
			}
		case 19: // a bump: the GEP's two uses keep it unfolded
			a := b.GEP(bases[src.Intn(len(bases))], zero, 0, offset())
			v := load(ir.I64, a)
			b.Store(a, b.Add(v, pick()))
			push(v)
		case 20:
			bases = append(bases, b.Add(base, b.ConstI64(8*int64(src.Intn(4)))))
		case 21:
			push(load(ir.I64, b.ConstI64(int64(Base)+offset())))
		case 22:
			b.Call("reseg", ir.Void)
		case 23:
			push(checked(b, src, pick(), pick()))
		}
	}
	acc2 := acc
	for _, v := range pool[len(pool)-3:] {
		acc2 = b.Xor(acc2, v)
	}
	for _, v := range loads {
		if v.Type != ir.I64 {
			v = b.ZExt(v, ir.I64)
		}
		acc2 = b.Xor(acc2, v)
	}
	i2 := b.Add(i, one)
	latch := b.B
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, latch)
	ir.AddIncoming(acc, f.Params[0], entry)
	ir.AddIncoming(acc, acc2, latch)

	b.SetBlock(exit)
	ovfB := f.NewBlock()
	contB := f.NewBlock()
	pair := b.SAddOvf(acc, f.Params[1])
	v := b.ExtractValue(pair, 0)
	b.CondBr(b.ExtractValue(pair, 1), ovfB, contB)
	b.SetBlock(ovfB)
	b.Ret(b.ConstI64(0x0DEAD))
	b.SetBlock(contB)
	b.Ret(v)
	return f
}

// checked emits a checked add, sub or mul of x and y that branches on
// overflow, leaves the builder in the no-overflow continuation and
// returns the value. The overflow target traps through trap_overflow,
// returns a sentinel, or rejoins the continuation; now and then the flag
// has a second use, so the group is not the fusable one.
func checked(b *ir.Builder, src Source, x, y *ir.Value) *ir.Value {
	var pair *ir.Value
	switch src.Intn(3) {
	case 0:
		pair = b.SAddOvf(x, y)
	case 1:
		pair = b.SSubOvf(x, y)
	default:
		pair = b.SMulOvf(x, y)
	}
	v := b.ExtractValue(pair, 0)
	fl := b.ExtractValue(pair, 1)
	if src.Intn(8) == 0 {
		v = b.Xor(v, b.ZExt(fl, ir.I64))
	}
	ovf, cont := b.NewBlock(), b.NewBlock()
	b.CondBr(fl, ovf, cont)
	b.SetBlock(ovf)
	switch src.Intn(3) {
	case 0:
		b.Call("trap_overflow", ir.Void)
		b.Ret(b.ConstI64(0x0BAD))
	case 1:
		b.Ret(b.ConstI64(0x0F10))
	default:
		b.Br(cont)
	}
	b.SetBlock(cont)
	return v
}

// Outcome is what one run of a generated function did.
type Outcome struct {
	Res     uint64
	Trap    string // the rt trap it raised, or ""
	Faulted bool   // it accessed memory outside its segment
	Mem     []byte // the scratch segment afterwards
}

// Run runs f(p0, p1, Base) through run on a fresh memory whose scratch
// segment holds a fixed pattern, with the runtime's builtins and "reseg"
// bound, and a stale register file. A memory fault — a Go bounds panic in the interpreters, the
// native back end's out-of-range access — is an outcome like a trap; any
// other panic propagates.
func Run(f *ir.Function, p0, p1 uint64, run func(ctx *rt.Ctx, args []uint64) uint64) (o Outcome) {
	mem := rt.NewMemory()
	seed := make([]byte, ScratchBytes)
	for i := range seed {
		seed[i] = byte(i*7 + 3)
	}
	if a := mem.AddSegment(seed); a != Base {
		panic(fmt.Sprintf("irtest: scratch segment at %#x, want %#x", a, Base))
	}
	ctx := &rt.Ctx{Mem: mem}
	// A reused register file holds what earlier runs left; here, a valid
	// address in every slot, so code that reads a slot it never wrote
	// addresses real bytes instead of faulting.
	for i, regs := 0, ctx.Regs(1024); i < len(regs); i++ {
		regs[i] = Base + 8
	}
	funcs, err := registry.Bind(externs(f.Module))
	if err != nil {
		panic(err)
	}
	ctx.Funcs = funcs
	defer func() {
		if r := recover(); r != nil {
			// A bounds fault reads "index out of range" or "slice bounds
			// out of range" from Go, "out-of-range memory access" from
			// machine code.
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "out of range") && !strings.Contains(msg, "out-of-range memory access") {
				panic(r)
			}
			o.Faulted = true
		}
		o.Mem = append([]byte(nil), mem.Bytes(Base, ScratchBytes)...)
	}()
	if err := rt.CatchTrap(func() { o.Res = run(ctx, []uint64{p0, p1, Base}) }); err != nil {
		o.Trap = err.Error()
	}
	return o
}

// Diff describes how got differs from want, or returns "".
func Diff(got, want Outcome) string {
	switch {
	case got.Faulted != want.Faulted:
		return fmt.Sprintf("faulted %v, want %v", got.Faulted, want.Faulted)
	case got.Trap != want.Trap:
		return fmt.Sprintf("trap %q, want %q", got.Trap, want.Trap)
	case !got.Faulted && got.Trap == "" && got.Res != want.Res:
		return fmt.Sprintf("result %#x, want %#x", got.Res, want.Res)
	case string(got.Mem) != string(want.Mem):
		return "memory image diverges"
	}
	return ""
}

var registry = func() *rt.Registry {
	r := rt.NewRegistry()
	rt.RegisterBuiltins(r)
	// reseg replaces the scratch segment with new bytes, as a growing
	// hash table replaces its bucket array: code that kept a translation
	// across the call would read or write the old ones.
	r.Register("reseg", func(ctx *rt.Ctx, _ []uint64) uint64 {
		fresh := append([]byte(nil), ctx.Mem.Bytes(Base, ScratchBytes)...)
		for i := range fresh {
			fresh[i] ^= 0xa5
		}
		ctx.Mem.SetSegment(Base, fresh)
		return 0
	})
	return r
}()

func externs(m *ir.Module) []string {
	names := make([]string, len(m.Externs))
	for i, e := range m.Externs {
		names[i] = e.Name
	}
	return names
}
