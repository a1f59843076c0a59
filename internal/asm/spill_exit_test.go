package asm_test

import (
	"math"
	"strings"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/rt"
)

// These tests pin the allocator's flush-at-exit invariant directly: at
// every point where control leaves generated code (extern call, trap,
// memory fault) the register file must hold the canonical slot state —
// every defined value in its assigned slot — exactly as the VM would have
// left it. Slot indices are hand-computed
// from the deterministic assignment (parameters first, then instruction
// results in program order), so a silent change to the layout fails here
// rather than hiding a stale-slot bug.

// TestSpillAtExternCall: three values are defined and held dirty in
// registers, then an extern runs. The extern observes the context's
// register file and must see all three in their canonical slots (the
// compiler flushes before the call exit because Go code may read or
// write any slot).
func TestSpillAtExternCall(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("spillcall", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	a, x := f.Params[0], f.Params[1]
	v1 := b.Add(a, x)        // slot 2
	v2 := b.Mul(a, x)        // slot 3
	v3 := b.Xor(a, x)        // slot 4
	b.Call("probe", ir.Void) // no args: values reach it only via slots
	b.Ret(b.Add(b.Add(v1, v2), v3))

	const av, xv = 1000003, 77
	want := []uint64{2: av + xv, 3: av * xv, 4: av ^ xv}
	code, err := asm.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	mem := rt.NewMemory()
	probed := false
	funcs := make([]rt.Func, 1)
	funcs[m.ExternIndex("probe")] = func(c *rt.Ctx, _ []uint64) uint64 {
		probed = true
		regs := c.Regs(code.NumSlots())
		for slot := 2; slot <= 4; slot++ {
			if regs[slot] != want[slot] {
				t.Errorf("at extern call, slot %d = %#x, want %#x", slot, regs[slot], want[slot])
			}
		}
		return 0
	}
	ctx := &rt.Ctx{Mem: mem, Funcs: funcs}
	res := code.Run(ctx, []uint64{av, xv})
	if !probed {
		t.Fatal("probe extern never ran")
	}
	if wantRes := uint64(av+xv) + av*xv + (av ^ xv); res != wantRes {
		t.Fatalf("result %#x, want %#x", res, wantRes)
	}
}

// TestSpillAtTrap: a division traps on a runtime zero while two unrelated
// values are live and dirty in registers. The trap's side exit must store
// them to their slots before unwinding to Go; the test inspects the
// register file the trap left behind.
func TestSpillAtTrap(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("spilltrap", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	a, x, d := f.Params[0], f.Params[1], f.Params[2]
	v1 := b.Add(a, x)  // slot 3
	v2 := b.Mul(a, x)  // slot 4
	q := b.SDiv(v1, d) // slot 5; d == 0 traps here
	b.Ret(b.Add(q, v2))

	code, err := asm.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	const av, xv = 424243, 999
	ctx := &rt.Ctx{Mem: rt.NewMemory()}
	trapErr := rt.CatchTrap(func() { code.Run(ctx, []uint64{av, xv, 0}) })
	if trapErr == nil {
		t.Fatal("division by zero did not trap")
	}
	regs := ctx.Regs(code.NumSlots())
	if regs[3] != av+xv {
		t.Errorf("at trap, slot 3 = %#x, want %#x", regs[3], uint64(av+xv))
	}
	if regs[4] != av*xv {
		t.Errorf("at trap, slot 4 = %#x, want %#x", regs[4], uint64(av*xv))
	}
}

// TestSpillAtFault is TestSpillAtTrap for the memory-fault exit: an
// out-of-range load panics (like the interpreters' slice bounds failure)
// after the fault's side exit stored the live dirty values.
func TestSpillAtFault(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("spillfault", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	a, x, addr := f.Params[0], f.Params[1], f.Params[2]
	v1 := b.Add(a, x)         // slot 3
	v2 := b.Xor(a, x)         // slot 4
	l := b.Load(ir.I64, addr) // slot 5; address 0 faults
	b.Ret(b.Add(b.Add(v1, v2), l))

	code, err := asm.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	const av, xv = 31337, 271828
	ctx := &rt.Ctx{Mem: rt.NewMemory()}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("out-of-range load did not fault")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "out-of-range") {
				panic(r) // not the fault we planted
			}
		}()
		code.Run(ctx, []uint64{av, xv, 0})
	}()
	regs := ctx.Regs(code.NumSlots())
	if regs[3] != av+xv {
		t.Errorf("at fault, slot 3 = %#x, want %#x", regs[3], uint64(av+xv))
	}
	if regs[4] != av^xv {
		t.Errorf("at fault, slot 4 = %#x, want %#x", regs[4], uint64(av^xv))
	}
}

// TestRegisterPressure holds more integer values live than the GPR pool
// (6) and more floats than the XMM pool, forcing next-use-driven eviction
// and reload; the differential harness checks both backends against the
// interpreter.
func TestRegisterPressure(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	m := ir.NewModule("t")
	f := m.NewFunc("pressure", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	a, x := f.Params[0], f.Params[1]
	// Ten values all live until the folding tail: at most 6 fit in the
	// pool, so at least four must spill and reload.
	var vs []*ir.Value
	for i := 1; i <= 10; i++ {
		vs = append(vs, b.Add(b.Mul(a, b.ConstI64(int64(i))), b.Xor(x, b.ConstI64(int64(i*7)))))
	}
	acc := vs[0]
	for _, v := range vs[1:] {
		acc = b.Xor(b.Add(acc, v), b.Mul(acc, b.ConstI64(1000000007)))
	}
	b.Ret(acc)
	for _, av := range i64Grid[:8] {
		for _, xv := range i64Grid[8:12] {
			diff(t, "pressure", f, []uint64{av, xv}, nil, nil)
		}
	}

	// Float pressure: eight doubles live across the folding tail against a
	// six-register XMM pool.
	m2 := ir.NewModule("t")
	f2 := m2.NewFunc("fpressure", ir.F64, ir.F64)
	b2 := ir.NewBuilder(f2)
	fa, fx := f2.Params[0], f2.Params[1]
	var fvs []*ir.Value
	for i := 1; i <= 8; i++ {
		fvs = append(fvs, b2.FAdd(b2.FMul(fa, b2.ConstF64(float64(i))), fx))
	}
	facc := fvs[0]
	for _, v := range fvs[1:] {
		facc = b2.FAdd(b2.FMul(facc, b2.ConstF64(1.0000001)), v)
	}
	b2.Ret(facc)
	for _, av := range f64Grid[:6] {
		for _, xv := range f64Grid[6:10] {
			diff(t, "fpressure", f2, []uint64{math.Float64bits(av), math.Float64bits(xv)}, nil, nil)
		}
	}
}
