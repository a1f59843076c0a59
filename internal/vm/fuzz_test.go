// The external test package breaks the vm → interp → vm import cycle.
package vm_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// byteSrc deterministically drives the IR builder from fuzz input.
type byteSrc struct {
	data []byte
	i    int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

func (s *byteSrc) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = s.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// buildFuzzFunc decodes the input into a well-formed, trap-free function:
// a counted loop threading an accumulator through φ-nodes, whose body is a
// byte-selected mix of arithmetic, comparisons, selects, float round-trips
// and scratch-segment loads/stores, closed by an overflow-checked add that
// branches to a sentinel return (the fusable pattern).
func buildFuzzFunc(src *byteSrc) *ir.Function {
	m := ir.NewModule("fuzz")
	f := m.NewFunc("f", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	zero := b.ConstI64(0)
	one := b.ConstI64(1)
	iters := b.ConstI64(int64(2 + src.next()%7))
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, iters)
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	pool := []*ir.Value{f.Params[0], f.Params[1], i, acc,
		b.ConstI64(int64(src.u64())), b.ConstI64(int64(src.next()) - 128)}
	pick := func() *ir.Value { return pool[int(src.next())%len(pool)] }
	push := func(v *ir.Value) { pool = append(pool, v) }
	base := f.Params[2]
	addr := func() *ir.Value {
		slot := b.And(pick(), b.ConstI64(31))
		return b.GEP(base, slot, 8, 0)
	}
	nops := 4 + int(src.next())%56
	for k := 0; k < nops; k++ {
		switch src.next() % 16 {
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
			sh := b.And(pick(), b.ConstI64(63))
			push(b.LShr(pick(), sh))
		case 7:
			sh := b.And(pick(), b.ConstI64(63))
			push(b.Shl(pick(), sh))
		case 8:
			c := b.ICmp(ir.Pred(src.next()%10), pick(), pick())
			push(b.Select(c, pick(), pick()))
		case 9:
			c := b.ICmp(ir.Pred(src.next()%6), pick(), pick())
			push(b.ZExt(c, ir.I64))
		case 10:
			d := b.Or(pick(), one) // nonzero divisor
			push(b.UDiv(pick(), d))
		case 11:
			d := b.Or(b.And(pick(), b.ConstI64(255)), one) // small positive
			push(b.SRem(pick(), d))
		case 12:
			b.Store(addr(), pick())
		case 13:
			push(b.Load(ir.I64, addr()))
		case 14:
			x := b.SIToFP(b.And(pick(), b.ConstI64(0xFFFFF)))
			y := b.SIToFP(b.Or(b.And(pick(), b.ConstI64(0xFF)), one))
			push(b.FPToSI(b.FDiv(b.FAdd(x, y), y)))
		case 15:
			push(b.AShr(pick(), b.And(pick(), b.ConstI64(63))))
		}
	}
	acc2 := acc
	for _, v := range pool[len(pool)-3:] {
		acc2 = b.Xor(acc2, v)
	}
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(acc, f.Params[0], entry)
	ir.AddIncoming(acc, acc2, body)

	b.SetBlock(exit)
	ovfB := f.NewBlock()
	contB := f.NewBlock()
	pair := b.SAddOvf(acc, f.Params[1])
	v := b.ExtractValue(pair, 0)
	fl := b.ExtractValue(pair, 1)
	b.CondBr(fl, ovfB, contB)
	b.SetBlock(ovfB)
	b.Ret(b.ConstI64(0x0DEAD))
	b.SetBlock(contB)
	b.Ret(v)
	return f
}

// FuzzTranslate differentially fuzzes the bytecode translator: any input
// becomes a verified IR function, which every register-allocation strategy
// must translate without error and execute with results and memory
// effects identical to the direct SSA interpreter. Where a native backend
// exists, the same function is also assembled to machine code (the tier-6
// template JIT) and diffed against the same oracle.
func FuzzTranslate(f *testing.F) {
	f.Add([]byte("aqe"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add(bytes.Repeat([]byte{12, 13, 7}, 40)) // store/load/shift heavy
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80, 0x7f}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{data: data}
		fn := buildFuzzFunc(src)
		if err := fn.Verify(); err != nil {
			t.Fatalf("builder produced invalid IR: %v", err)
		}
		args := [2]uint64{src.u64(), src.u64()}
		runOne := func(g *ir.Function, opts *vm.Options) (uint64, []byte) {
			mem := rt.NewMemory()
			scratch := make([]byte, 32*8)
			base := mem.AddSegment(scratch)
			ctx := &rt.Ctx{Mem: mem}
			if opts == nil {
				return interp.Run(g, ctx, []uint64{args[0], args[1], base}), scratch
			}
			p, err := vm.Translate(g, *opts)
			if err != nil {
				t.Fatalf("translate %+v: %v", *opts, err)
			}
			return p.Run(ctx, []uint64{args[0], args[1], base}), scratch
		}
		wantRes, wantMem := runOne(fn, nil)
		strategies := []vm.Options{
			{Strategy: vm.LoopAware},
			{Strategy: vm.NoReuse},
			{Strategy: vm.Window, WindowSize: 2},
			{Strategy: vm.LoopAware, NoFusion: true},
		}
		for _, opts := range strategies {
			o := opts
			res, mem := runOne(fn.Clone(), &o)
			if res != wantRes {
				t.Errorf("%+v: result %#x, want %#x", o, res, wantRes)
			}
			if !bytes.Equal(mem, wantMem) {
				t.Errorf("%+v: memory image diverges", o)
			}
		}
		if asm.Supported() {
			// Both machine-code tiers must agree with the oracle bit for
			// bit: the function as built, and after the optimizing passes.
			// Clone: the unoptimized tier splits critical edges in place.
			for _, level := range []jit.Level{jit.Unoptimized, jit.Optimized} {
				c, err := jit.Compile(fn.Clone(), level, nil)
				if err != nil {
					t.Fatalf("%v compile: %v", level, err)
				}
				mem := rt.NewMemory()
				scratch := make([]byte, 32*8)
				base := mem.AddSegment(scratch)
				ctx := &rt.Ctx{Mem: mem}
				res := c.Run(ctx, []uint64{args[0], args[1], base})
				if res != wantRes {
					t.Errorf("%v: result %#x, want %#x", level, res, wantRes)
				}
				if !bytes.Equal(scratch, wantMem) {
					t.Errorf("%v: memory image diverges", level)
				}
			}
		}
	})
}
