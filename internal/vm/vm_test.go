package vm

import (
	"strings"
	"testing"

	"aqe/internal/ir"
	"aqe/internal/rt"
)

// run translates f with opts and executes it with the given args.
func run(t *testing.T, f *ir.Function, opts Options, ctx *rt.Ctx, args ...uint64) uint64 {
	t.Helper()
	p, err := Translate(f, opts)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if ctx == nil {
		ctx = &rt.Ctx{Mem: rt.NewMemory()}
	}
	return p.Run(ctx, args)
}

func allStrategies() []Options {
	return []Options{
		{Strategy: LoopAware},
		{Strategy: NoReuse},
		{Strategy: Window, WindowSize: 2},
		{Strategy: LoopAware, NoFusion: true},
	}
}

func buildAdd(m *ir.Module) *ir.Function {
	// The paper's §IV-A example: add(i32 a, i32 b) { return a + b }, here
	// on i64.
	f := m.NewFunc("add", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Add(f.Params[0], f.Params[1]))
	return f
}

func TestAdd(t *testing.T) {
	for _, opts := range allStrategies() {
		f := buildAdd(ir.NewModule("t"))
		if got := run(t, f, opts, nil, 40, 2); got != 42 {
			t.Errorf("strategy %v: add(40,2) = %d", opts.Strategy, got)
		}
	}
}

func buildLoopSum(m *ir.Module) *ir.Function {
	f := m.NewFunc("loopsum", ir.I64)
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
	cond := b.ICmp(ir.SLt, i, f.Params[0])
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	s2 := b.Add(s, i)
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, zero, entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Ret(s)
	return f
}

func TestLoopSum(t *testing.T) {
	for _, opts := range allStrategies() {
		f := buildLoopSum(ir.NewModule("t"))
		if got := run(t, f, opts, nil, 100); got != 4950 {
			t.Errorf("strategy %v: loopsum(100) = %d, want 4950", opts.Strategy, got)
		}
		if got := run(t, buildLoopSum(ir.NewModule("t")), opts, nil, 0); got != 0 {
			t.Errorf("strategy %v: loopsum(0) = %d, want 0", opts.Strategy, got)
		}
	}
}

func TestCmpBranchFusion(t *testing.T) {
	f := buildLoopSum(ir.NewModule("t"))
	p, err := Translate(f, Options{Strategy: LoopAware})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range p.Code {
		if in.Op == OpJSLtI64 {
			found = true
		}
		if in.Op == OpCmpSLtI64 || in.Op == OpJmpIf {
			t.Errorf("unfused compare/branch remains: %s", in.Op)
		}
	}
	if !found {
		t.Error("no fused compare-and-branch emitted")
	}
	if p.Fused == 0 {
		t.Error("fusion counter is zero")
	}
}

func TestNoFusionStillCorrect(t *testing.T) {
	f := buildLoopSum(ir.NewModule("t"))
	p, err := Translate(f, Options{Strategy: LoopAware, NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Fused != 0 {
		t.Errorf("NoFusion translated with %d fused ops", p.Fused)
	}
	ctx := &rt.Ctx{Mem: rt.NewMemory()}
	if got := p.Run(ctx, []uint64{10}); got != 45 {
		t.Errorf("loopsum(10) = %d, want 45", got)
	}
}

// buildOverflowChecked builds the overflow-checking pattern codegen emits:
// r = a*b with a branch to a trap call on overflow.
func buildOverflowChecked(m *ir.Module) *ir.Function {
	f := m.NewFunc("mulchk", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	ovfB := f.NewBlock()
	contB := f.NewBlock()
	pair := b.SMulOvf(f.Params[0], f.Params[1])
	v := b.ExtractValue(pair, 0)
	fl := b.ExtractValue(pair, 1)
	b.CondBr(fl, ovfB, contB)
	b.SetBlock(ovfB)
	b.Call("trap_overflow", ir.Void)
	b.RetVoid()
	b.SetBlock(contB)
	b.Ret(v)
	return f
}

func trapCtx() *rt.Ctx {
	reg := rt.NewRegistry()
	reg.Register("trap_overflow", func(ctx *rt.Ctx, args []uint64) uint64 {
		rt.Throw(rt.TrapOverflow)
		return 0
	})
	funcs, _ := reg.Bind([]string{"trap_overflow"})
	return &rt.Ctx{Mem: rt.NewMemory(), Funcs: funcs}
}

func TestOverflowFusion(t *testing.T) {
	f := buildOverflowChecked(ir.NewModule("t"))
	p, err := Translate(f, Options{Strategy: LoopAware})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range p.Code {
		if in.Op == OpSMulOvfBr {
			found = true
		}
	}
	if !found {
		t.Fatalf("overflow group not fused:\n%s", p)
	}
	ctx := trapCtx()
	if got := p.Run(ctx, []uint64{6, 7}); got != 42 {
		t.Errorf("mulchk(6,7) = %d", got)
	}
	err = rt.CatchTrap(func() {
		p.Run(ctx, []uint64{uint64(1 << 62), 4})
	})
	if trap, ok := err.(*rt.Trap); !ok || trap.Code != rt.TrapOverflow {
		t.Errorf("expected overflow trap, got %v", err)
	}
}

func TestOverflowUnfused(t *testing.T) {
	for _, opts := range []Options{{NoFusion: true}, {Strategy: NoReuse, NoFusion: true}} {
		f := buildOverflowChecked(ir.NewModule("t"))
		p, err := Translate(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := trapCtx()
		if got := p.Run(ctx, []uint64{6, 7}); got != 42 {
			t.Errorf("unfused mulchk(6,7) = %d", got)
		}
		err = rt.CatchTrap(func() {
			p.Run(ctx, []uint64{1 << 40, 1 << 40})
		})
		if err == nil {
			t.Error("expected overflow trap")
		}
	}
}

func TestDivByZeroTrap(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("div", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.SDiv(f.Params[0], f.Params[1]))
	p, err := Translate(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &rt.Ctx{Mem: rt.NewMemory()}
	if got := p.Run(ctx, []uint64{84, 2}); got != 42 {
		t.Errorf("div(84,2) = %d", got)
	}
	err = rt.CatchTrap(func() {
		p.Run(ctx, []uint64{84, 0})
	})
	if trap, ok := err.(*rt.Trap); !ok || trap.Code != rt.TrapDivZero {
		t.Errorf("expected div-zero trap, got %v", err)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	// sumcol(base, n): sum of an i64 column via fused gep+load.
	m := ir.NewModule("t")
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
	addr := b.GEP(f.Params[0], i, 8, 0)
	v := b.Load(ir.I64, addr)
	s2 := b.Add(s, v)
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, zero, entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Ret(s)

	for _, opts := range allStrategies() {
		mem := rt.NewMemory()
		data := make([]byte, 10*8)
		base := mem.AddSegment(data)
		want := uint64(0)
		for i := 0; i < 10; i++ {
			mem.Store64(base+uint64(i*8), uint64(i*i))
			want += uint64(i * i)
		}
		ctx := &rt.Ctx{Mem: mem}
		p, err := Translate(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Run(ctx, []uint64{base, 10}); got != want {
			t.Errorf("strategy %v: sumcol = %d, want %d", opts.Strategy, got, want)
		}
	}
}

func TestGEPLoadFusion(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("ld", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	addr := b.GEP(f.Params[0], f.Params[1], 8, 16)
	b.Ret(b.Load(ir.I64, addr))
	p, err := Translate(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.Code {
		if in.Op == OpLea {
			t.Errorf("gep not fused into load_idx:\n%s", p)
		}
	}
	mem := rt.NewMemory()
	base := mem.Alloc(128)
	mem.Store64(base+16+3*8, 777)
	ctx := &rt.Ctx{Mem: mem}
	if got := p.Run(ctx, []uint64{base, 3}); got != 777 {
		t.Errorf("fused load = %d, want 777", got)
	}
}

func TestNarrowLoadsAndStores(t *testing.T) {
	m := ir.NewModule("t")
	// echo(base): store i8/i16/i32 values then reload and combine.
	f := m.NewFunc("narrow", ir.I64)
	b := ir.NewBuilder(f)
	base := f.Params[0]
	b.Store(b.GEP(base, nil, 0, 0), b.Trunc(b.ConstI64(0x1FF), ir.I8))    // 0xFF
	b.Store(b.GEP(base, nil, 0, 2), b.Trunc(b.ConstI64(0x1FFFF), ir.I16)) // 0xFFFF
	b.Store(b.GEP(base, nil, 0, 4), b.Trunc(b.ConstI64(-1), ir.I32))
	v8 := b.ZExt(b.Load(ir.I8, b.GEP(base, nil, 0, 0)), ir.I64)
	v16 := b.ZExt(b.Load(ir.I16, b.GEP(base, nil, 0, 2)), ir.I64)
	v32 := b.ZExt(b.Load(ir.I32, b.GEP(base, nil, 0, 4)), ir.I64)
	s := b.Add(v8, v16)
	s = b.Add(s, v32)
	b.Ret(s)
	mem := rt.NewMemory()
	baseAddr := mem.Alloc(64)
	ctx := &rt.Ctx{Mem: mem}
	want := uint64(0xFF) + 0xFFFF + 0xFFFFFFFF
	for _, opts := range allStrategies() {
		p, err := Translate(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Run(ctx, []uint64{baseAddr}); got != want {
			t.Errorf("strategy %v: narrow = %#x, want %#x", opts.Strategy, got, want)
		}
	}
}

func TestSExt(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("sext", ir.I64)
	b := ir.NewBuilder(f)
	v8 := b.Trunc(f.Params[0], ir.I8)
	b.Ret(b.SExt(v8, ir.I64))
	if got := run(t, f, Options{}, nil, 0x80); got != uint64(0xFFFFFFFFFFFFFF80) {
		t.Errorf("sext(0x80) = %#x", got)
	}
}

func TestSelect(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("max", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	c := b.ICmp(ir.SGt, f.Params[0], f.Params[1])
	b.Ret(b.Select(c, f.Params[0], f.Params[1]))
	if got := run(t, f, Options{}, nil, 3, 9); got != 9 {
		t.Errorf("max(3,9) = %d", got)
	}
	f2 := m.NewFunc("max2", ir.I64, ir.I64)
	b = ir.NewBuilder(f2)
	c = b.ICmp(ir.SGt, f2.Params[0], f2.Params[1])
	b.Ret(b.Select(c, f2.Params[0], f2.Params[1]))
	if got := run(t, f2, Options{}, nil, 9, 3); got != 9 {
		t.Errorf("max(9,3) = %d", got)
	}
}

func TestFloatArithmetic(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("favg", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	x := b.SIToFP(f.Params[0])
	y := b.SIToFP(f.Params[1])
	avg := b.FDiv(b.FAdd(x, y), b.ConstF64(2))
	b.Ret(b.FPToSI(avg))
	if got := run(t, f, Options{}, nil, 10, 20); got != 15 {
		t.Errorf("favg(10,20) = %d, want 15", got)
	}
}

func TestFloatCompare(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("fgt", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	c := b.FCmp(ir.SGt, b.SIToFP(f.Params[0]), b.SIToFP(f.Params[1]))
	b.Ret(b.ZExt(c, ir.I64))
	if got := run(t, f, Options{}, nil, 5, 3); got != 1 {
		t.Errorf("fgt(5,3) = %d", got)
	}
	f2 := m.NewFunc("fgt2", ir.I64, ir.I64)
	b = ir.NewBuilder(f2)
	c = b.FCmp(ir.SGt, b.SIToFP(f2.Params[0]), b.SIToFP(f2.Params[1]))
	b.Ret(b.ZExt(c, ir.I64))
	if got := run(t, f2, Options{}, nil, 3, 5); got != 0 {
		t.Errorf("fgt(3,5) = %d", got)
	}
}

func TestExternCall(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("callout", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	v := b.Call("mul3", ir.I64, f.Params[0], f.Params[1], b.ConstI64(2))
	b.Ret(v)
	reg := rt.NewRegistry()
	reg.Register("mul3", func(ctx *rt.Ctx, args []uint64) uint64 {
		return args[0] * args[1] * args[2]
	})
	funcs, err := reg.Bind([]string{"mul3"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &rt.Ctx{Mem: rt.NewMemory(), Funcs: funcs}
	if got := run(t, f, Options{}, ctx, 3, 7); got != 42 {
		t.Errorf("callout = %d, want 42", got)
	}
}

// TestPhiSwap exercises the parallel-copy cycle: (a,b) = (b,a) in a loop.
func TestPhiSwap(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("swapN", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	zero, one := b.ConstI64(0), b.ConstI64(1)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(ir.I64)
	a := b.Phi(ir.I64)
	bb := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, f.Params[0])
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(a, f.Params[1], entry)
	ir.AddIncoming(a, bb, body) // swap each iteration
	ir.AddIncoming(bb, f.Params[2], entry)
	ir.AddIncoming(bb, a, body)
	b.SetBlock(exit)
	// return a*1000 + b
	b.Ret(b.Add(b.Mul(a, b.ConstI64(1000)), bb))

	for _, opts := range allStrategies() {
		// Odd iteration count: swapped once net.
		if got := run(t, f, opts, nil, 3, 7, 9); got != 9*1000+7 {
			t.Errorf("strategy %v: swap odd = %d, want %d", opts.Strategy, got, 9*1000+7)
		}
		if got := run(t, f, opts, nil, 4, 7, 9); got != 7*1000+9 {
			t.Errorf("strategy %v: swap even = %d, want %d", opts.Strategy, got, 7*1000+9)
		}
	}
}

func TestRegisterFileSizes(t *testing.T) {
	// §IV-C: loop-aware must use no more slots than window, which must use
	// no more than no-reuse.
	f := buildBigStraightLine()
	var sizes [3]int
	for i, s := range []Strategy{LoopAware, Window, NoReuse} {
		p, err := Translate(f, Options{Strategy: s, WindowSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = p.NumRegs
	}
	if !(sizes[0] <= sizes[1] && sizes[1] <= sizes[2]) {
		t.Errorf("register sizes not ordered: loop=%d window=%d noreuse=%d",
			sizes[0], sizes[1], sizes[2])
	}
	if sizes[0] == sizes[2] {
		t.Errorf("loop-aware did not reuse any register (= %d)", sizes[0])
	}
}

// buildBigStraightLine builds a multi-block chain where most values die
// quickly, so allocators with reuse need far fewer slots.
func buildBigStraightLine() *ir.Function {
	m := ir.NewModule("t")
	f := m.NewFunc("chain", ir.I64)
	b := ir.NewBuilder(f)
	v := f.Params[0]
	cur := b.B
	for i := 0; i < 40; i++ {
		t1 := b.Add(v, b.ConstI64(int64(i+1)))
		t2 := b.Mul(t1, t1)
		v = b.Xor(t2, v)
		next := f.NewBlock()
		b.Br(next)
		b.SetBlock(next)
		cur = next
	}
	_ = cur
	b.Ret(v)
	return f
}

func TestConstPoolLayout(t *testing.T) {
	m := ir.NewModule("t")
	f := buildAdd(m)
	p, err := Translate(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ConstPool) < 2 || p.ConstPool[0] != 0 || p.ConstPool[1] != 1 {
		t.Errorf("const pool must start with 0,1: %v", p.ConstPool)
	}
	if p.ParamBase != len(p.ConstPool) {
		t.Errorf("params must follow the const pool")
	}
}

func TestDisassembly(t *testing.T) {
	f := buildLoopSum(ir.NewModule("t"))
	p, err := Translate(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "add_i64") || !strings.Contains(s, "jslt_i64") {
		t.Errorf("disassembly missing expected opcodes:\n%s", s)
	}
}

func TestOverflowHelpers(t *testing.T) {
	const min, max = -1 << 63, 1<<63 - 1
	cases := []struct {
		x, y int64
		add  bool
		sub  bool
		mul  bool
	}{
		{1, 2, false, false, false},
		{max, 1, true, false, false},
		{min, -1, true, false, true},
		{min, min, true, false, true},
		{max, max, true, false, true},
		{1 << 32, 1 << 32, false, false, true},
		{-(1 << 32), 1 << 32, false, false, true},
		{1 << 31, 1 << 31, false, false, false},
		{0, min, false, true, false},
		{-1, max, false, false, false},
		{min / 2, 2, false, false, false},
		{min/2 - 1, 2, false, false, true},
	}
	for _, c := range cases {
		if _, o := AddOverflow(c.x, c.y); o != c.add {
			t.Errorf("AddOverflow(%d,%d) = %v, want %v", c.x, c.y, o, c.add)
		}
		if _, o := SubOverflow(c.x, c.y); o != c.sub {
			t.Errorf("SubOverflow(%d,%d) = %v, want %v", c.x, c.y, o, c.sub)
		}
		r, o := MulOverflow(c.x, c.y)
		if o != c.mul {
			t.Errorf("MulOverflow(%d,%d) = %v, want %v", c.x, c.y, o, c.mul)
		}
		if !o && r != c.x*c.y {
			t.Errorf("MulOverflow(%d,%d) result %d != %d", c.x, c.y, r, c.x*c.y)
		}
	}
}
