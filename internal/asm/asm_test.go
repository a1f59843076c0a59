package asm_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/rt"
)

// run executes fn both natively and in the SSA interpreter with identical
// fresh memories, returning (result, trap error, recovered panic) plus the
// final memory images for comparison.
type outcome struct {
	res      uint64
	err      error
	panicked bool
	mem      []byte
}

func runOne(f *ir.Function, args []uint64, seed []byte, funcs func(*rt.Memory) []rt.Func, native bool) (o outcome) {
	mem := rt.NewMemory()
	var base uint64
	if seed != nil {
		data := make([]byte, len(seed))
		copy(data, seed)
		base = mem.AddSegment(data)
	}
	ctx := &rt.Ctx{Mem: mem}
	if funcs != nil {
		ctx.Funcs = funcs(mem)
	}
	callArgs := make([]uint64, len(args))
	for i, a := range args {
		callArgs[i] = a
		if a == segBaseToken {
			callArgs[i] = base
		}
	}
	defer func() {
		if r := recover(); r != nil {
			o.panicked = true
		}
		if seed != nil {
			o.mem = mem.Bytes(base, len(seed))
		}
	}()
	if native {
		code, err := asm.Compile(f.Clone())
		if err != nil {
			panic(fmt.Sprintf("asm: compile: %v", err))
		}
		o.err = rt.CatchTrap(func() { o.res = code.Run(ctx, callArgs) })
	} else {
		o.err = rt.CatchTrap(func() { o.res = interp.Run(f, ctx, callArgs) })
	}
	return o
}

// segBaseToken in an argument list is replaced by the base address of the
// seeded segment (fresh per run, but deterministically equal across the
// native and interpreted runs).
const segBaseToken = 0xfeedfacecafef00d

func diff(t *testing.T, name string, f *ir.Function, args []uint64, seed []byte, funcs func(*rt.Memory) []rt.Func) {
	t.Helper()
	want := runOne(f, args, seed, funcs, false)
	got := runOne(f, args, seed, funcs, true)
	if want.panicked != got.panicked {
		t.Fatalf("%s%v: native panicked=%v, interp panicked=%v", name, args, got.panicked, want.panicked)
	}
	if (want.err == nil) != (got.err == nil) || (want.err != nil && want.err.Error() != got.err.Error()) {
		t.Fatalf("%s%v: native err=%v, interp err=%v", name, args, got.err, want.err)
	}
	if !want.panicked && want.err == nil && got.res != want.res {
		t.Fatalf("%s%v: native=%#x interp=%#x", name, args, got.res, want.res)
	}
	if string(got.mem) != string(want.mem) {
		t.Fatalf("%s%v: native and interp memory images differ", name, args)
	}
}

var i64Grid = []uint64{
	0, 1, 2, 3, 7, 63, 64, 65, 100, 1000000007,
	uint64(math.MaxInt64), uint64(math.MaxInt64 - 1),
	1 << 32, 1 << 47, 1<<48 + 5,
	^uint64(0),         // -1
	^uint64(0) - 2,     // -3
	1 << 63,            // MinInt64
	1<<63 + 1,          // MinInt64+1
	0xffffffff80000000, // -2^31
	0x7fffffff, 0x80000000, 0xffffffff, 0x100000000,
}

var f64Grid = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.75, 1e10, -1e10, 1e300, -1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 9.007199254740993e15, 1e30,
}

func binop(t *testing.T, name string, build func(b *ir.Builder, x, y *ir.Value) *ir.Value) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc(name, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(build(b, f.Params[0], f.Params[1]))
	for _, x := range i64Grid {
		for _, y := range i64Grid {
			diff(t, name, f, []uint64{x, y}, nil, nil)
		}
	}
	// Immediate right-operand variants exercise the imm32/imm64 templates.
	for _, c := range []uint64{0, 1, 3, 100, ^uint64(0), 1 << 40, uint64(math.MaxInt32), 1 << 63} {
		m2 := ir.NewModule("t")
		f2 := m2.NewFunc(name+"_imm", ir.I64)
		b2 := ir.NewBuilder(f2)
		b2.Ret(build(b2, f2.Params[0], f2.Const(ir.I64, c)))
		for _, x := range i64Grid {
			diff(t, name+"_imm", f2, []uint64{x}, nil, nil)
		}
	}
}

func TestIntOps(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	binop(t, "add", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.Add(x, y) })
	binop(t, "sub", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.Sub(x, y) })
	binop(t, "mul", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.Mul(x, y) })
	binop(t, "sdiv", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.SDiv(x, y) })
	binop(t, "srem", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.SRem(x, y) })
	binop(t, "udiv", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.UDiv(x, y) })
	binop(t, "urem", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.URem(x, y) })
	binop(t, "and", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.And(x, y) })
	binop(t, "or", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.Or(x, y) })
	binop(t, "xor", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.Xor(x, y) })
	binop(t, "shl", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.Shl(x, y) })
	binop(t, "lshr", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.LShr(x, y) })
	binop(t, "ashr", func(b *ir.Builder, x, y *ir.Value) *ir.Value { return b.AShr(x, y) })
}

func TestOverflowPairs(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	for _, op := range []string{"sadd", "ssub", "smul"} {
		m := ir.NewModule("t")
		f := m.NewFunc(op, ir.I64, ir.I64)
		b := ir.NewBuilder(f)
		var p *ir.Value
		switch op {
		case "sadd":
			p = b.SAddOvf(f.Params[0], f.Params[1])
		case "ssub":
			p = b.SSubOvf(f.Params[0], f.Params[1])
		default:
			p = b.SMulOvf(f.Params[0], f.Params[1])
		}
		v := b.ExtractValue(p, 0)
		fl := b.ExtractValue(p, 1)
		b.Ret(b.Xor(v, b.Mul(fl, b.ConstI64(1000000007))))
		for _, x := range i64Grid {
			for _, y := range i64Grid {
				diff(t, op, f, []uint64{x, y}, nil, nil)
			}
		}
	}
}

func TestComparisons(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	preds := []ir.Pred{ir.Eq, ir.Ne, ir.SLt, ir.SLe, ir.SGt, ir.SGe, ir.ULt, ir.ULe, ir.UGt, ir.UGe}
	for _, p := range preds {
		m := ir.NewModule("t")
		f := m.NewFunc("icmp", ir.I64, ir.I64)
		b := ir.NewBuilder(f)
		b.Ret(b.ZExt(b.ICmp(p, f.Params[0], f.Params[1]), ir.I64))
		for _, x := range i64Grid {
			for _, y := range i64Grid {
				diff(t, "icmp_"+p.String(), f, []uint64{x, y}, nil, nil)
			}
		}
	}
	for _, p := range preds[:6] { // FCmp supports the first six, ordered
		m := ir.NewModule("t")
		f := m.NewFunc("fcmp", ir.F64, ir.F64)
		b := ir.NewBuilder(f)
		b.Ret(b.ZExt(b.FCmp(p, f.Params[0], f.Params[1]), ir.I64))
		for _, x := range f64Grid {
			for _, y := range f64Grid {
				diff(t, "fcmp_"+p.String(), f, []uint64{math.Float64bits(x), math.Float64bits(y)}, nil, nil)
			}
		}
	}
}

func TestFloatOpsAndConversions(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	for _, op := range []string{"fadd", "fsub", "fmul", "fdiv"} {
		m := ir.NewModule("t")
		f := m.NewFunc(op, ir.F64, ir.F64)
		b := ir.NewBuilder(f)
		switch op {
		case "fadd":
			b.Ret(b.FAdd(f.Params[0], f.Params[1]))
		case "fsub":
			b.Ret(b.FSub(f.Params[0], f.Params[1]))
		case "fmul":
			b.Ret(b.FMul(f.Params[0], f.Params[1]))
		default:
			b.Ret(b.FDiv(f.Params[0], f.Params[1]))
		}
		for _, x := range f64Grid {
			for _, y := range f64Grid {
				diff(t, op, f, []uint64{math.Float64bits(x), math.Float64bits(y)}, nil, nil)
			}
		}
	}
	{
		m := ir.NewModule("t")
		f := m.NewFunc("fptosi", ir.F64)
		b := ir.NewBuilder(f)
		b.Ret(b.FPToSI(f.Params[0]))
		for _, x := range f64Grid {
			diff(t, "fptosi", f, []uint64{math.Float64bits(x)}, nil, nil)
		}
	}
	{
		m := ir.NewModule("t")
		f := m.NewFunc("sitofp", ir.I64)
		b := ir.NewBuilder(f)
		b.Ret(b.FPToSI(b.FAdd(b.SIToFP(f.Params[0]), b.ConstF64(0.25))))
		for _, x := range i64Grid {
			diff(t, "sitofp", f, []uint64{x}, nil, nil)
		}
	}
	// Narrowing and widening chains through every integer width.
	for _, ty := range []ir.Type{ir.I1, ir.I8, ir.I16, ir.I32} {
		m := ir.NewModule("t")
		f := m.NewFunc("extchain", ir.I64)
		b := ir.NewBuilder(f)
		nar := b.Trunc(f.Params[0], ty)
		b.Ret(b.Xor(b.SExt(nar, ir.I64), b.Shl(b.ZExt(nar, ir.I64), b.ConstI64(1))))
		for _, x := range i64Grid {
			diff(t, fmt.Sprintf("extchain_%v", ty), f, []uint64{x}, nil, nil)
		}
	}
}

func TestSelect(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("select", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	c := b.ICmp(ir.SLt, f.Params[0], f.Params[1])
	v := b.Select(c, b.Add(f.Params[0], b.ConstI64(5)), b.Sub(f.Params[1], b.ConstI64(7)))
	b.Ret(b.Add(v, b.ZExt(c, ir.I64))) // second use keeps the icmp unfused
	for _, x := range i64Grid {
		for _, y := range i64Grid {
			diff(t, "select", f, []uint64{x, y}, nil, nil)
		}
	}
}

// TestMemory covers every load/store width plus GEP addressing, verifying
// the final memory image byte for byte.
func TestMemory(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("mem", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	base, idx, val := f.Params[0], f.Params[1], f.Params[2]
	b.Store(b.GEP(base, idx, 8, 0), val)
	b.Store(b.GEP(base, idx, 4, 32), b.Trunc(val, ir.I32))
	b.Store(b.GEP(base, idx, 2, 48), b.Trunc(val, ir.I16))
	b.Store(b.GEP(base, b.ConstI64(3), 1, 56), b.Trunc(val, ir.I8))
	l8 := b.Load(ir.I64, b.GEP(base, idx, 8, 0))
	l4 := b.Load(ir.I32, b.GEP(base, idx, 4, 32))
	l2 := b.Load(ir.I16, b.GEP(base, idx, 2, 48))
	l1 := b.Load(ir.I8, b.GEP(base, b.ConstI64(3), 1, 56))
	sum := b.Add(b.Add(b.ZExt(l8, ir.I64), b.ZExt(l4, ir.I64)),
		b.Add(b.ZExt(l2, ir.I64), b.ZExt(l1, ir.I64)))
	b.Ret(sum)
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	for _, idx := range []uint64{0, 1, 2, 3} {
		for _, v := range []uint64{0, 0xdeadbeefcafef00d, ^uint64(0), 0x1234} {
			diff(t, "mem", f, []uint64{segBaseToken, idx, v}, seed, nil)
		}
	}
}

func TestMemoryFaults(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("oob", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Load(ir.I64, f.Params[0]))
	seed := make([]byte, 16)
	// In-range, straddling the end, past the end, bad segment, and null.
	for _, addr := range []uint64{segBaseToken, segBaseToken + 12, segBaseToken + 16,
		uint64(200) << 48, 0} {
		diff(t, "oob", f, []uint64{addr}, seed, nil)
	}
}

// TestLoopPhi exercises φ-cycles (the fib swap needs the scratch slot),
// fused compare-and-branch with φ-moves between the CMP and the Jcc, and
// constant φ-inputs (including zero) that must be emitted flag-safely.
func TestLoopPhi(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("fib", ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	loop := b.NewBlock()
	exit := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	x := b.Phi(ir.I64)
	y := b.Phi(ir.I64)
	z := b.Phi(ir.I64)
	x2 := y
	y2 := b.Add(x, y)
	i2 := b.Add(i, b.ConstI64(1))
	cond := b.ICmp(ir.SLt, i2, f.Params[0])
	b.CondBr(cond, loop, exit)
	ir.AddIncoming(i, b.ConstI64(0), entry)
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(x, b.ConstI64(0), entry)
	ir.AddIncoming(x, x2, loop) // x ← y, y ← x+y: swap cycle through scratch
	ir.AddIncoming(y, b.ConstI64(1), entry)
	ir.AddIncoming(y, y2, loop)
	ir.AddIncoming(z, f.Params[0], entry)
	ir.AddIncoming(z, b.ConstI64(0), loop) // constant-0 move after the fused CMP
	b.SetBlock(exit)
	b.Ret(b.Add(y2, z))
	for _, n := range []uint64{1, 2, 3, 10, 50, 90} {
		diff(t, "fib", f, []uint64{n}, nil, nil)
	}
}

// TestExternCalls drives the exit-to-Go call protocol, including an extern
// that grows memory mid-run (forcing the segment-table re-snapshot) and
// one that traps.
func TestExternCalls(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("calls", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	s := b.Call("mix", ir.I64, f.Params[0], f.Params[1], b.ConstI64(3), b.ConstI64(4))
	p := b.Call("grow", ir.I64)
	b.Store(p, s)
	b.Call("note", ir.Void, s)
	b.Ret(b.Add(b.Load(ir.I64, p), b.Call("mix", ir.I64, s, s, s, s)))
	funcs := func(mem *rt.Memory) []rt.Func {
		out := make([]rt.Func, 3)
		out[m.ExternIndex("mix")] = func(_ *rt.Ctx, args []uint64) uint64 {
			return args[0]*31 + args[1]*7 + args[2] + args[3]*3
		}
		out[m.ExternIndex("grow")] = func(ctx *rt.Ctx, _ []uint64) uint64 {
			return ctx.Mem.Alloc(64)
		}
		out[m.ExternIndex("note")] = func(_ *rt.Ctx, _ []uint64) uint64 { return 0 }
		return out
	}
	for _, x := range []uint64{0, 5, 1 << 40} {
		diff(t, "calls", f, []uint64{x, x ^ 0xabcdef}, nil, funcs)
	}

	m2 := ir.NewModule("t")
	f2 := m2.NewFunc("trapcall", ir.I64)
	b2 := ir.NewBuilder(f2)
	b2.Ret(b2.Call("boom", ir.I64, f2.Params[0]))
	funcs2 := func(*rt.Memory) []rt.Func {
		return []rt.Func{func(_ *rt.Ctx, args []uint64) uint64 {
			if args[0] == 7 {
				rt.Throw(rt.TrapOverflow)
			}
			return args[0]
		}}
	}
	diff(t, "trapcall", f2, []uint64{6}, nil, funcs2)
	diff(t, "trapcall", f2, []uint64{7}, nil, funcs2)
}

func TestUnsupportedAndAllocFailure(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("pairphi", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	pairv := b.SAddOvf(f.Params[0], f.Params[1])
	join := b.NewBlock()
	b.Br(join)
	b.SetBlock(join)
	p := b.Phi(ir.Pair)
	ir.AddIncoming(p, pairv, entry)
	_ = p
	b.Ret(b.ConstI64(0))
	if _, err := asm.Compile(f.Clone()); err == nil {
		t.Fatal("pair-typed phi should be unsupported")
	}

	if !asm.Supported() {
		return
	}
	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	m2 := ir.NewModule("t")
	f2 := m2.NewFunc("tiny")
	b2 := ir.NewBuilder(f2)
	b2.Ret(b2.ConstI64(1))
	if _, err := asm.Compile(f2); err == nil {
		t.Fatal("forced allocation failure should surface as a compile error")
	}
}

// TestExecMemoryCounters: an assembled function holds one page-rounded
// mapping for as long as its Code is reachable, and the finalizer that
// unmaps it takes it off the counters again.
func TestExecMemoryCounters(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("tiny")
	b := ir.NewBuilder(f)
	b.Ret(b.ConstI64(1))
	if !asm.Supported() {
		if _, err := asm.Compile(f); err == nil || asm.ExecMemory() != (asm.ExecMemStats{}) {
			t.Fatalf("no backend, yet compile err = %v and %+v mapped", err, asm.ExecMemory())
		}
		return
	}
	// Every Code an earlier test assembled is unreachable by now; its
	// finalizer runs on the runtime's goroutine, some time after the
	// collection that found it so.
	drained := func() bool {
		for i := 0; i < 1000 && asm.ExecMemory().Mappings > 0; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		return asm.ExecMemory() == asm.ExecMemStats{}
	}
	if !drained() {
		t.Fatalf("nothing is reachable, yet %+v is mapped", asm.ExecMemory())
	}
	code, err := asm.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := asm.ExecMemory(), (asm.ExecMemStats{Mappings: 1, Bytes: int64(code.SizeBytes())}); got != want {
		t.Errorf("one live mapping: %+v, want %+v", got, want)
	}
	runtime.KeepAlive(code)
	code = nil
	if !drained() {
		t.Errorf("the Code is unreachable, yet %+v is mapped", asm.ExecMemory())
	}
}
