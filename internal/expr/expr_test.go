package expr

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// The test schema: one column of each kind.
var testSchema = []Type{TInt, TDec(2), TDate, TFloat, TChar, TString}

const colStride = 16 // [value u64][len u64] per column in the test row

// compileExpr builds a function f(rowAddr) that evaluates e against the
// row laid out at rowAddr and returns its value (bools widened, floats as
// bits).
func compileExpr(t *testing.T, e Expr, lits *literals) *ir.Function {
	t.Helper()
	m := ir.NewModule("exprtest")
	f := m.NewFunc("eval", ir.I64)
	b := ir.NewBuilder(f)
	cg := &CG{
		B: b,
		Col: func(idx int) Val {
			base := f.Params[0]
			switch testSchema[idx].Kind {
			case KFloat:
				return Val{X: b.Load(ir.F64, b.GEP(base, nil, 0, int64(idx*colStride)))}
			case KString:
				addr := b.Load(ir.I64, b.GEP(base, nil, 0, int64(idx*colStride)))
				n := b.Load(ir.I64, b.GEP(base, nil, 0, int64(idx*colStride+8)))
				return Val{X: addr, Len: n}
			default:
				return Val{X: b.Load(ir.I64, b.GEP(base, nil, 0, int64(idx*colStride)))}
			}
		},
		Pattern: lits.pattern,
		StrLit:  lits.strLit,
	}
	v := cg.Gen(e)
	res := v.X
	if res.Type == ir.I1 {
		res = b.ZExt(res, ir.I64)
	}
	b.Ret(res)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.String())
	}
	return f
}

// literals interns string literals and LIKE patterns the way the engine
// does: into a pre-registered segment and the query state.
type literals struct {
	mem  *rt.Memory
	base rt.Addr
	buf  []byte
	q    *rt.QueryState
}

func newLiterals(mem *rt.Memory, q *rt.QueryState) *literals {
	buf := make([]byte, 1<<16)
	return &literals{mem: mem, base: mem.AddSegment(buf), buf: buf, q: q}
}

var litCursor int

func (l *literals) strLit(s string) (int64, int64) {
	off := litCursor
	copy(l.buf[off:], s)
	litCursor += len(s)
	return int64(l.base) + int64(off), int64(len(s))
}

func (l *literals) pattern(p string) int { return l.q.AddPattern(p) }

// row builds the in-memory row and the matching []Datum.
func makeRow(mem *rt.Memory, rng *rand.Rand) (rt.Addr, []Datum) {
	strs := []string{"forest green", "PROMO BRUSHED", "ASIA", "x", "", "metallic blue"}
	s := strs[rng.Intn(len(strs))]
	row := []Datum{
		{I: int64(rng.Intn(2001) - 1000)},
		{I: int64(rng.Intn(20001) - 10000)},
		{I: int64(rng.Intn(20000))},
		{F: float64(rng.Intn(1000)) / 8},
		{I: int64('A' + rng.Intn(26))},
		{S: s},
	}
	buf := make([]byte, len(row)*colStride+len(s))
	base := mem.AddSegment(buf)
	for i, d := range row {
		switch testSchema[i].Kind {
		case KFloat:
			binary.LittleEndian.PutUint64(buf[i*colStride:], math.Float64bits(d.F))
		case KString:
			sOff := len(row) * colStride
			copy(buf[sOff:], d.S)
			binary.LittleEndian.PutUint64(buf[i*colStride:], base+uint64(sOff))
			binary.LittleEndian.PutUint64(buf[i*colStride+8:], uint64(len(d.S)))
		default:
			binary.LittleEndian.PutUint64(buf[i*colStride:], uint64(d.I))
		}
	}
	return base, row
}

// randBool / randNum generate random well-typed expressions.
func randBool(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		return Bool(rng.Intn(2) == 0)
	}
	switch rng.Intn(7) {
	case 0:
		ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
		return NewCmp(ops[rng.Intn(len(ops))], randNum(rng, depth-1), randNum(rng, depth-1))
	case 1:
		return And(randBool(rng, depth-1), randBool(rng, depth-1))
	case 2:
		return Or(randBool(rng, depth-1), randBool(rng, depth-1))
	case 3:
		return Not(randBool(rng, depth-1))
	case 4:
		pats := []string{"%green%", "PROMO%", "%BRUSHED", "x", "%a_i%", "%"}
		return Like(Col(5, TString), pats[rng.Intn(len(pats))])
	case 5:
		return In(Col(0, TInt), Int(3), Int(-7), Int(100))
	default:
		return In(Col(5, TString), Str("ASIA"), Str("forest green"))
	}
}

func randNum(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return Col(0, TInt)
		case 1:
			return Col(1, TDec(2))
		case 2:
			return Col(3, TFloat)
		case 3:
			return Int(int64(rng.Intn(199) - 99))
		default:
			return Dec(int64(rng.Intn(999)-499), 2)
		}
	}
	switch rng.Intn(7) {
	case 0:
		return Add(randNum(rng, depth-1), randNum(rng, depth-1))
	case 1:
		return Sub(randNum(rng, depth-1), randNum(rng, depth-1))
	case 2:
		return Mul(randNum(rng, depth-1), randNum(rng, depth-1))
	case 3:
		return Div(randNum(rng, depth-1), Int(int64(rng.Intn(20)+1)))
	case 4:
		return Year(Col(2, TDate))
	case 5:
		return Case([]When{{Cond: randBool(rng, depth-1), Then: ToFloat(randNum(rng, depth-1))}},
			ToFloat(randNum(rng, depth-1)))
	default:
		return ToFloat(randNum(rng, depth-1))
	}
}

type outcome struct {
	val     uint64
	trapped bool
}

func evalOutcome(e Expr, row []Datum) outcome {
	var o outcome
	err := rt.CatchTrap(func() {
		d := Eval(e, row)
		if e.Type().Kind == KFloat {
			o.val = math.Float64bits(d.F)
		} else {
			o.val = uint64(d.I)
		}
	})
	o.trapped = err != nil
	return o
}

func runOutcome(t *testing.T, f *ir.Function, ctx *rt.Ctx, rowAddr rt.Addr, opt bool) outcome {
	t.Helper()
	var o outcome
	err := rt.CatchTrap(func() {
		if opt {
			c, cerr := jit.Compile(f.Clone(), jit.Optimized, nil)
			if cerr != nil {
				t.Fatalf("jit: %v", cerr)
			}
			o.val = c.Run(ctx, []uint64{rowAddr})
			return
		}
		p, terr := vm.Translate(f, vm.Options{})
		if terr != nil {
			t.Fatalf("translate: %v", terr)
		}
		o.val = p.Run(ctx, []uint64{rowAddr})
	})
	if err != nil {
		o.trapped = true
	}
	return o
}

func TestExprDifferential(t *testing.T) {
	reg := rt.NewRegistry()
	rt.RegisterBuiltins(reg)
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		litCursor = 0
		mem := rt.NewMemory()
		q := rt.NewQueryState(mem, 1, 16, 16)
		lits := newLiterals(mem, q)
		var e Expr
		if seed%3 == 0 {
			e = randNum(rng, 3)
		} else {
			e = randBool(rng, 3)
		}
		f := compileExpr(t, e, lits)
		fns, err := reg.Bind(externNames(f.Module))
		if err != nil {
			t.Fatal(err)
		}
		rowAddr, row := makeRow(mem, rng)
		ctx := &rt.Ctx{Mem: mem, Funcs: fns, Query: q}

		want := evalOutcome(e, row)
		if got := runOutcome(t, f, ctx, rowAddr, false); got != want {
			t.Errorf("seed %d: VM %+v, Eval %+v for %s", seed, got, want, String(e))
		}
		// Optimized machine code needs a native backend.
		if !asm.Supported() {
			continue
		}
		if got := runOutcome(t, f, ctx, rowAddr, true); got != want {
			t.Errorf("seed %d: JIT %+v, Eval %+v for %s", seed, got, want, String(e))
		}
	}
}

func externNames(m *ir.Module) []string {
	names := make([]string, len(m.Externs))
	for i, e := range m.Externs {
		names[i] = e.Name
	}
	return names
}

func TestEvalDecimalRules(t *testing.T) {
	// 12.50 * (1 - 0.06) = 11.75 at scale 4 (the Q1 disc_price shape).
	price := Dec(1250, 2)
	disc := Dec(6, 2)
	e := Mul(price, Sub(Dec(100, 2), disc))
	if e.Type() != TDec(4) {
		t.Fatalf("type = %s, want decimal(4)", e.Type())
	}
	d := Eval(e, nil)
	if d.I != 1250*94 {
		t.Errorf("value = %d, want %d", d.I, 1250*94)
	}
}

func TestEvalDecDivIsFloat(t *testing.T) {
	e := Div(Dec(100, 2), Dec(300, 2))
	if e.Type().Kind != KFloat {
		t.Fatalf("dec/dec should be float, got %s", e.Type())
	}
	d := Eval(e, nil)
	if math.Abs(d.F-1.0/3) > 1e-12 {
		t.Errorf("value = %v", d.F)
	}
}

func TestEvalMixedScaleCompare(t *testing.T) {
	// 1.5 (scale 1) > 1.25 (scale 2)
	e := Gt(Dec(15, 1), Dec(125, 2))
	if !Eval(e, nil).Bool() {
		t.Error("1.5 > 1.25 failed")
	}
}

func TestEvalSubstrAndIn(t *testing.T) {
	row := []Datum{{}, {}, {}, {}, {}, {S: "13-702-5435"}}
	e := In(Substr(Col(5, TString), 1, 2), Str("13"), Str("31"))
	if !Eval(e, row).Bool() {
		t.Error("substr-in failed")
	}
	e2 := In(Substr(Col(5, TString), 1, 2), Str("14"))
	if Eval(e2, row).Bool() {
		t.Error("substr-in matched wrongly")
	}
}

func TestEvalOverflowTraps(t *testing.T) {
	e := Mul(Int(1<<40), Int(1<<40))
	err := rt.CatchTrap(func() { Eval(e, nil) })
	if trap, ok := err.(*rt.Trap); !ok || trap.Code != rt.TrapOverflow {
		t.Errorf("expected overflow, got %v", err)
	}
}

func TestTypePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("add string", func() { Add(Str("a"), Int(1)) })
	mustPanic("and non-bool", func() { And(Int(1), Bool(true)) })
	mustPanic("like non-string", func() { Like(Int(1), "%x%") })
	mustPanic("string vs int", func() { Lt(Str("a"), Int(1)) })
	mustPanic("case mismatched arms", func() {
		Case([]When{{Cond: Bool(true), Then: Int(1)}}, Str("x"))
	})
	mustPanic("in mixed", func() { In(Int(1), Str("x")) })
}
