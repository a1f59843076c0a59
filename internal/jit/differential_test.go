package jit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/ir/irtest"
	"aqe/internal/ir/passes"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

type engine struct {
	name string
	run  func(f *ir.Function, ctx *rt.Ctx, args []uint64) (uint64, error)
}

func engines(t *testing.T) []engine {
	t.Helper()
	mkVM := func(opts vm.Options) func(f *ir.Function, ctx *rt.Ctx, args []uint64) (uint64, error) {
		return func(f *ir.Function, ctx *rt.Ctx, args []uint64) (uint64, error) {
			p, err := vm.Translate(f, opts)
			if err != nil {
				return 0, err
			}
			return p.Run(ctx, args), nil
		}
	}
	engs := []engine{
		{"ir-interp", func(f *ir.Function, ctx *rt.Ctx, args []uint64) (uint64, error) {
			return interp.Run(f, ctx, args), nil
		}},
		{"vm-loopaware", mkVM(vm.Options{Strategy: vm.LoopAware})},
		{"vm-noreuse", mkVM(vm.Options{Strategy: vm.NoReuse})},
		{"vm-window", mkVM(vm.Options{Strategy: vm.Window, WindowSize: 2})},
		{"vm-nofusion", mkVM(vm.Options{NoFusion: true})},
	}
	if !asm.Supported() {
		return engs
	}
	mkJIT := func(level Level) func(f *ir.Function, ctx *rt.Ctx, args []uint64) (uint64, error) {
		return func(f *ir.Function, ctx *rt.Ctx, args []uint64) (uint64, error) {
			c, err := Compile(f, level, nil)
			if err != nil {
				return 0, err
			}
			return c.Run(ctx, args), nil
		}
	}
	return append(engs, engine{"jit-unopt", mkJIT(Unoptimized)}, engine{"jit-opt", mkJIT(Optimized)})
}

// needNative skips a test that runs compiled code on a platform without a
// native backend, where Compile always fails with asm.ErrUnsupported.
func needNative(t *testing.T) {
	t.Helper()
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
}

// TestDifferentialRandomPrograms runs generated programs (irtest.Func)
// on every engine: each must match the IR interpreter in result, memory
// image, trap and fault.
func TestDifferentialRandomPrograms(t *testing.T) {
	engs := engines(t)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := irtest.Func(rng, 20+rng.Intn(40))
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: generated function invalid: %v", seed, err)
		}
		p0, p1 := rng.Uint64(), rng.Uint64()
		want := runEngine(t, engs[0], f, p0, p1)
		for _, e := range engs[1:] {
			// Clone per engine: translation may split critical edges and
			// the optimizing tier must not see a pre-mutated function.
			if d := irtest.Diff(runEngine(t, e, f.Clone(), p0, p1), want); d != "" {
				t.Errorf("seed %d: %s: %s (ir-interp)", seed, e.name, d)
			}
		}
	}
}

// TestDifferentialQuick drives a few fixed programs with quick-generated
// argument values.
func TestDifferentialQuick(t *testing.T) {
	engs := engines(t)
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := irtest.Func(rng, 30)
		check := func(a, b uint64) bool {
			want := runEngine(t, engs[0], f, a, b)
			for _, e := range engs[1:] {
				if irtest.Diff(runEngine(t, e, f.Clone(), a, b), want) != "" {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// runEngine runs one engine on irtest's fresh memory image.
func runEngine(t *testing.T, e engine, f *ir.Function, p0, p1 uint64) irtest.Outcome {
	t.Helper()
	return irtest.Run(f, p0, p1, func(ctx *rt.Ctx, args []uint64) uint64 {
		res, err := e.run(f, ctx, args)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		return res
	})
}

func TestJITLoopSum(t *testing.T) {
	needNative(t)
	m := ir.NewModule("t")
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

	for _, level := range []Level{Unoptimized, Optimized} {
		c, err := Compile(f.Clone(), level, nil)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		ctx := &rt.Ctx{Mem: rt.NewMemory()}
		if got := c.Run(ctx, []uint64{100}); got != 4950 {
			t.Errorf("%v: loopsum(100) = %d, want 4950", level, got)
		}
	}
}

func TestJITTrapSemantics(t *testing.T) {
	needNative(t)
	m := ir.NewModule("t")
	f := m.NewFunc("div", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.SDiv(f.Params[0], f.Params[1]))
	for _, level := range []Level{Unoptimized, Optimized} {
		c, err := Compile(f.Clone(), level, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &rt.Ctx{Mem: rt.NewMemory()}
		if got := c.Run(ctx, []uint64{84, 2}); got != 42 {
			t.Errorf("%v: div = %d", level, got)
		}
		err = rt.CatchTrap(func() {
			c.Run(ctx, []uint64{84, 0})
		})
		if trap, ok := err.(*rt.Trap); !ok || trap.Code != rt.TrapDivZero {
			t.Errorf("%v: expected div-zero trap, got %v", level, err)
		}
	}
}

func TestOptimizedTierRunsPasses(t *testing.T) {
	needNative(t)
	m := ir.NewModule("t")
	f := m.NewFunc("redundant", ir.I64)
	b := ir.NewBuilder(f)
	// Redundant subexpressions and a constant chain the pipeline folds.
	x := b.Add(f.Params[0], b.ConstI64(2))
	y := b.Add(f.Params[0], b.ConstI64(2)) // CSE target
	z := b.Mul(b.ConstI64(3), b.ConstI64(4))
	b.Ret(b.Add(b.Add(x, y), z))
	c, err := Compile(f, Optimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Passes.CSE == 0 && c.Stats.Passes.Folded == 0 {
		t.Errorf("pass pipeline reported no work: %+v", c.Stats.Passes)
	}
	ctx := &rt.Ctx{Mem: rt.NewMemory()}
	if got := c.Run(ctx, []uint64{10}); got != 36 {
		t.Errorf("redundant(10) = %d, want 36", got)
	}
}

func TestCompileStats(t *testing.T) {
	needNative(t)
	rng := rand.New(rand.NewSource(7))
	f := irtest.Func(rng, 40)
	unopt, err := Compile(f.Clone(), Unoptimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(f.Clone(), Optimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unopt.Level != Unoptimized || opt.Level != Optimized {
		t.Error("level not recorded")
	}
	if unopt.Stats.IRInstrs == 0 || opt.Stats.IRInstrs == 0 {
		t.Error("instruction counts missing")
	}
	if unopt.Stats.Passes != (passes.Stats{}) {
		t.Errorf("unoptimized tier ran passes: %+v", unopt.Stats.Passes)
	}
	if opt.Stats.Passes.Rounds == 0 {
		t.Error("optimized tier ran no passes")
	}
	// The passes removed instructions, and the optimized tier assembled
	// what they left.
	if opt.Stats.Passes.DCE+opt.Stats.Passes.CSE == 0 || opt.Stats.IRInstrs >= unopt.Stats.IRInstrs {
		t.Errorf("optimized IR has %d instructions, plain %d, after %+v",
			opt.Stats.IRInstrs, unopt.Stats.IRInstrs, opt.Stats.Passes)
	}
}
