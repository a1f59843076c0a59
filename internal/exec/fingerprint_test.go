package exec

import (
	"testing"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// fpOf code-generates the plan into a fresh address space and fingerprints
// it, exactly as RunPlan does.
func fpOf(t *testing.T, node plan.Node) Fingerprint {
	t.Helper()
	cq, err := codegen.Compile(node, rt.NewMemory(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	return fingerprintOf(cq)
}

// fpPlan builds a representative scan→filter→aggregate plan with a
// parameterizable filter constant.
func fpPlan(threshold int64) plan.Node {
	s := plan.NewScan(ordersT, "o_total", "o_status")
	sch := s.Schema()
	s.Where(expr.Gt(plan.C(sch, "o_total"), expr.Dec(threshold, 2)))
	return plan.NewGroupBy(s,
		[]expr.Expr{plan.C(sch, "o_status")}, []string{"st"},
		[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"}})
}

func TestFingerprintStable(t *testing.T) {
	// The same plan, code-generated twice into distinct address spaces,
	// must fingerprint identically — this is what makes the cache hit on
	// repeated queries.
	a := fpOf(t, fpPlan(50000))
	b := fpOf(t, fpPlan(50000))
	if a != b {
		t.Fatalf("same plan fingerprints differ: %s vs %s", a.Short(), b.Short())
	}
	if a == (Fingerprint{}) {
		t.Fatal("zero fingerprint")
	}
}

func TestFingerprintChangedConstant(t *testing.T) {
	a := fpOf(t, fpPlan(50000))
	b := fpOf(t, fpPlan(50001))
	if a == b {
		t.Fatal("changed filter constant did not change the fingerprint")
	}
}

func TestFingerprintChangedType(t *testing.T) {
	// Same shape, one column typed Int64 vs Float64: the generated
	// arithmetic differs (int vs float sum), so fingerprints must too.
	mk := func(kind storage.Kind) plan.Node {
		c := storage.NewColumn("v", kind)
		for i := 0; i < 8; i++ {
			if kind == storage.Float64 {
				c.AppendFloat64(float64(i))
			} else {
				c.AppendInt64(int64(i))
			}
		}
		tbl := storage.NewTable("t", c)
		s := plan.NewScan(tbl, "v")
		return plan.NewGroupBy(s, nil, nil,
			[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(s.Schema(), "v"), Name: "s"}})
	}
	a := fpOf(t, mk(storage.Int64))
	b := fpOf(t, mk(storage.Float64))
	if a == b {
		t.Fatal("changed column type did not change the fingerprint")
	}
}

func TestFingerprintChangedExtern(t *testing.T) {
	// Adding a LIKE predicate pulls in a string-matching extern.
	base := func() *plan.Scan { return plan.NewScan(ordersT, "o_id", "o_comment") }
	plain := base()
	liked := base()
	liked.Where(expr.Like(plan.C(liked.Schema(), "o_comment"), "%deposits%"))
	a := fpOf(t, plain)
	b := fpOf(t, liked)
	if a == b {
		t.Fatal("added extern call did not change the fingerprint")
	}
}

func TestFingerprintChangedLiteralAndPattern(t *testing.T) {
	// Two LIKE patterns of equal length generate identical code (patterns
	// are addressed indirectly); the fingerprint still distinguishes them.
	mk := func(pat string) plan.Node {
		s := plan.NewScan(ordersT, "o_id", "o_comment")
		s.Where(expr.Like(plan.C(s.Schema(), "o_comment"), pat))
		return s
	}
	a := fpOf(t, mk("%deposits%"))
	b := fpOf(t, mk("%packages%"))
	if a == b {
		t.Fatal("changed LIKE pattern did not change the fingerprint")
	}
	// Same for equal-length string literals in an equality predicate.
	mkEq := func(seg string) plan.Node {
		s := plan.NewScan(custT, "c_id", "c_seg")
		s.Where(expr.Eq(plan.C(s.Schema(), "c_seg"), expr.Str(seg)))
		return s
	}
	c := fpOf(t, mkEq("BUILDING"))
	d := fpOf(t, mkEq("GUILDING"))
	if c == d {
		t.Fatal("changed string literal did not change the fingerprint")
	}
}

// fpParamPlan is fpPlan with the filter threshold as parameter $1 (and
// optionally a second char parameter on o_status).
func fpParamPlan(t0 expr.Type, second bool) plan.Node {
	s := plan.NewScan(ordersT, "o_total", "o_status")
	sch := s.Schema()
	cond := expr.Gt(plan.C(sch, "o_total"), expr.ParamRef(0, t0))
	if second {
		cond = expr.And(cond,
			expr.Eq(plan.C(sch, "o_status"), expr.ParamRef(1, expr.TChar)))
	}
	s.Where(cond)
	return plan.NewGroupBy(s,
		[]expr.Expr{plan.C(sch, "o_status")}, []string{"st"},
		[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"}})
}

func TestFingerprintParamSlots(t *testing.T) {
	// Parameter *slots* are hashed, values never: a parameterized plan's
	// fingerprint is independent of bindings by construction (the values
	// live in the run's parameter segment, outside the module), so every
	// binding shares one cache entry. Changing the slot — its type, its
	// decimal scale, or the arity — must re-key the plan.
	a := fpOf(t, fpParamPlan(expr.TDec(2), false))
	b := fpOf(t, fpParamPlan(expr.TDec(2), false))
	if a != b {
		t.Fatalf("same parameterized plan fingerprints differ: %s vs %s", a.Short(), b.Short())
	}
	if c := fpOf(t, fpPlan(50000)); c == a {
		t.Fatal("parameterized and constant plans share a fingerprint")
	}
	if d := fpOf(t, fpParamPlan(expr.TDec(3), false)); d == a {
		t.Fatal("changed parameter scale did not change the fingerprint")
	}
	if e := fpOf(t, fpParamPlan(expr.TInt, false)); e == a {
		t.Fatal("changed parameter type did not change the fingerprint")
	}
	if f := fpOf(t, fpParamPlan(expr.TDec(2), true)); f == a {
		t.Fatal("changed parameter arity did not change the fingerprint")
	}
}
