package jit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/ir/passes"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// genFunc builds a random but well-formed function:
//
//	f(p0, p1, base):
//	  loop 7 times: a body of random arithmetic, comparisons, selects,
//	  float round-trips and loads/stores against a scratch segment,
//	  threading an accumulator through φ-nodes;
//	  then an overflow-checked add of the accumulator (the fusable
//	  pattern) returning a sentinel on overflow.
//
// Every execution engine must produce identical results, memory effects
// and traps for these functions; the differential tests below compare the
// IR interpreter, the bytecode VM under every allocation strategy, and
// both JIT tiers where the platform has a native backend.
func genFunc(rng *rand.Rand, nbody int) *ir.Function {
	m := ir.NewModule("diff")
	f := m.NewFunc("f", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	zero := b.ConstI64(0)
	one := b.ConstI64(1)
	iters := b.ConstI64(int64(3 + rng.Intn(6)))
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, iters)
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	pool := []*ir.Value{f.Params[0], f.Params[1], i, acc,
		b.ConstI64(rng.Int63()), b.ConstI64(int64(rng.Intn(97) - 48))}
	pick := func() *ir.Value { return pool[rng.Intn(len(pool))] }
	push := func(v *ir.Value) { pool = append(pool, v) }
	base := f.Params[2]
	addr := func() *ir.Value {
		slot := b.And(pick(), b.ConstI64(31))
		return b.GEP(base, slot, 8, 0)
	}
	for k := 0; k < nbody; k++ {
		switch rng.Intn(14) {
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
			c := b.ICmp(ir.Pred(rng.Intn(10)), pick(), pick())
			push(b.Select(c, pick(), pick()))
		case 8:
			c := b.ICmp(ir.Pred(rng.Intn(6)), pick(), pick())
			push(b.ZExt(c, ir.I64))
		case 9:
			// Unsigned division with a nonzero divisor.
			d := b.Or(pick(), one)
			push(b.UDiv(pick(), d))
		case 10:
			// Signed division with a small positive divisor.
			d := b.Or(b.And(pick(), b.ConstI64(255)), one)
			push(b.SDiv(pick(), d))
		case 11:
			b.Store(addr(), pick())
		case 12:
			push(b.Load(ir.I64, addr()))
		case 13:
			// Float round-trip.
			x := b.SIToFP(b.And(pick(), b.ConstI64(0xFFFFF)))
			y := b.SIToFP(b.Or(b.And(pick(), b.ConstI64(0xFF)), one))
			push(b.FPToSI(b.FDiv(b.FAdd(x, y), y)))
		}
	}
	// Fold the newest values into the accumulator.
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

// runEngine executes one engine on a fresh memory image and returns the
// result plus the final scratch segment contents.
func runEngine(t *testing.T, e engine, f *ir.Function, args [2]uint64) (uint64, []byte) {
	t.Helper()
	mem := rt.NewMemory()
	scratch := make([]byte, 32*8)
	base := mem.AddSegment(scratch)
	ctx := &rt.Ctx{Mem: mem}
	res, err := e.run(f, ctx, []uint64{args[0], args[1], base})
	if err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	return res, scratch
}

func TestDifferentialRandomPrograms(t *testing.T) {
	engs := engines(t)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := genFunc(rng, 20+rng.Intn(40))
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: generated function invalid: %v", seed, err)
		}
		args := [2]uint64{rng.Uint64(), rng.Uint64()}
		wantRes, wantMem := runEngine(t, engs[0], f, args)
		for _, e := range engs[1:] {
			// Clone per engine: translation may split critical edges and
			// the optimizing tier must not see a pre-mutated function.
			g := f.Clone()
			res, mem := runEngine(t, e, g, args)
			if res != wantRes {
				t.Errorf("seed %d: %s result %#x, want %#x (ir-interp)", seed, e.name, res, wantRes)
			}
			if string(mem) != string(wantMem) {
				t.Errorf("seed %d: %s memory image diverges", seed, e.name)
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
		f := genFunc(rng, 30)
		check := func(a, b uint64) bool {
			wantRes, wantMem := runEngine(t, engs[0], f, [2]uint64{a, b})
			for _, e := range engs[1:] {
				res, mem := runEngine(t, e, f.Clone(), [2]uint64{a, b})
				if res != wantRes || string(mem) != string(wantMem) {
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
	f := genFunc(rng, 40)
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
