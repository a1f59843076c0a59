package asm_test

import (
	"testing"

	"aqe/internal/asm"
	"aqe/internal/ir"
)

// benchFunc builds a compile-time benchmark subject shaped like a query
// pipeline: a counted loop whose body is a few hundred instructions of
// mixed arithmetic, comparisons, selects and scratch-memory traffic.
func benchFunc() *ir.Function {
	m := ir.NewModule("bench")
	f := m.NewFunc("f", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	zero := b.ConstI64(0)
	one := b.ConstI64(1)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, b.ConstI64(64))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	base := f.Params[1]
	v := acc
	for k := 0; k < 60; k++ {
		t1 := b.Add(v, b.ConstI64(int64(k*7+1)))
		t2 := b.Mul(t1, f.Params[0])
		t3 := b.Xor(t2, b.LShr(t1, b.ConstI64(3)))
		c := b.ICmp(ir.SLt, t3, t2)
		v = b.Select(c, t3, b.Sub(t2, t1))
		if k%5 == 0 {
			slot := b.And(v, b.ConstI64(31))
			addr := b.GEP(base, slot, 8, 0)
			b.Store(addr, v)
			v = b.Add(v, b.Load(ir.I64, addr))
		}
	}
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(acc, f.Params[0], entry)
	ir.AddIncoming(acc, v, body)

	b.SetBlock(exit)
	b.Ret(acc)
	return f
}

func BenchmarkCompile(b *testing.B) {
	if !asm.Supported() {
		b.Skip("no native backend")
	}
	f := benchFunc()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		fn := f.Clone() // Compile splits critical edges in place
		b.StartTimer()
		if _, err := asm.Compile(fn); err != nil {
			b.Fatal(err)
		}
	}
}
