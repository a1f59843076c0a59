package jit

import (
	"testing"

	"aqe/internal/ir"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

func buildSumColFn() *ir.Function {
	m := ir.NewModule("b")
	f := m.NewFunc("sumcol", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	zero, one := b.ConstI64(0), b.ConstI64(1)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, f.Params[1])
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	v := b.Load(ir.I64, b.GEP(f.Params[0], i, 8, 0))
	v2 := b.Load(ir.I64, b.GEP(f.Params[0], i, 8, 8))
	// checked add pattern like codegen emits
	ovfB := f.NewBlock()
	contB := f.NewBlock()
	pair := b.SAddOvf(v, v2)
	e0 := b.ExtractValue(pair, 0)
	e1 := b.ExtractValue(pair, 1)
	b.CondBr(e1, ovfB, contB)
	b.SetBlock(ovfB)
	b.Call("trap_overflow", ir.Void)
	b.RetVoid()
	b.SetBlock(contB)
	s2 := b.Add(s, e0)
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, contB)
	ir.AddIncoming(s, zero, entry)
	ir.AddIncoming(s, s2, contB)
	b.SetBlock(exit)
	b.Ret(s)
	return f
}

func mkCtx() (*rt.Ctx, uint64) {
	mem := rt.NewMemory()
	base := mem.Alloc((100002) * 8)
	for k := 0; k < 100001; k++ {
		mem.Store64(base+uint64(k*8), uint64(k%1000))
	}
	reg := rt.NewRegistry()
	rt.RegisterBuiltins(reg)
	fns, _ := reg.Bind([]string{"trap_overflow"})
	return &rt.Ctx{Mem: mem, Funcs: fns}, base
}

func BenchmarkTierVM(b *testing.B) {
	f := buildSumColFn()
	p, _ := vm.Translate(f, vm.Options{})
	ctx, base := mkCtx()
	args := []uint64{base, 100000}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p.Run(ctx, args)
	}
}

func BenchmarkTierUnopt(b *testing.B) {
	f := buildSumColFn()
	c, err := Compile(f, Unoptimized, nil)
	if err != nil {
		b.Skip(err)
	}
	ctx, base := mkCtx()
	args := []uint64{base, 100000}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.Run(ctx, args)
	}
}

func BenchmarkTierOpt(b *testing.B) {
	f := buildSumColFn()
	c, err := Compile(f, Optimized, nil)
	if err != nil {
		b.Skip(err)
	}
	ctx, base := mkCtx()
	args := []uint64{base, 100000}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.Run(ctx, args)
	}
}
