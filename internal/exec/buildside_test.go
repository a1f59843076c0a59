package exec

import (
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
	"aqe/internal/volcano"
)

// buildSideKinds are the joins whose hash table holds the side they return.
var buildSideKinds = []plan.JoinKind{plan.RightSemi, plan.RightAnti, plan.RightCount}

// buildSideEngines adds the static mode testEngines leaves out: every
// pipeline run as batch kernels (the mark probe and the join scan are both
// kernel shapes).
func buildSideEngines() map[string]*Engine {
	engs := testEngines()
	engs["vector-w3"] = New(Options{Workers: 3, Mode: ModeVector, MorselSize: 64})
	return engs
}

// hotT is a build table whose key 7 occurs on several rows; every other
// key is unique.
var hotT = func() *storage.Table {
	key := storage.NewColumn("h_key", storage.Int64)
	val := storage.NewColumn("h_val", storage.Decimal)
	name := storage.NewColumn("h_name", storage.String)
	for i := 0; i < 300; i++ {
		k := int64(i)
		if i%50 == 0 {
			k = 7
		}
		key.AppendInt64(k)
		val.AppendInt64(int64(i * 331 % 100000))
		name.AppendString([]string{"alpha", "beta", "gamma"}[i%3])
	}
	return storage.NewTable("hot", key, val, name)
}()

// buildSideCase is one build-side join shape; residual says whether it
// carries a residual over [probe ++ build].
type buildSideCase struct {
	name  string
	build func(kind plan.JoinKind, residual bool) plan.Node
}

var buildSideCases = []buildSideCase{
	// Duplicate build keys: orders of a customer share o_cust, so one probe
	// row (a customer) matches many build tuples.
	{"dup-keys", func(kind plan.JoinKind, residual bool) plan.Node {
		o := plan.NewScan(ordersT, "o_id", "o_cust", "o_total", "o_comment")
		o.Where(expr.Lt(plan.C(o.Schema(), "o_total"), expr.Dec(20000, 2)))
		c := plan.NewScan(custT, "c_id", "c_bal")
		j := plan.NewJoin(kind, o, c,
			[]expr.Expr{plan.C(o.Schema(), "o_cust")},
			[]expr.Expr{plan.C(c.Schema(), "c_id")}, nil)
		if residual {
			comb := j.CombinedSchema()
			j.WithResidual(expr.Gt(plan.C(comb, "o_total"), plan.C(comb, "c_bal")))
		}
		return j
	}},
	{"empty-build", func(kind plan.JoinKind, residual bool) plan.Node {
		c := plan.NewScan(custT, "c_id", "c_seg", "c_bal")
		c.Where(expr.Lt(plan.C(c.Schema(), "c_id"), expr.Int(0)))
		o := plan.NewScan(ordersT, "o_cust", "o_total")
		j := plan.NewJoin(kind, c, o,
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]expr.Expr{plan.C(o.Schema(), "o_cust")}, nil)
		if residual {
			comb := j.CombinedSchema()
			j.WithResidual(expr.Gt(plan.C(comb, "o_total"), plan.C(comb, "c_bal")))
		}
		return j
	}},
	{"empty-probe", func(kind plan.JoinKind, residual bool) plan.Node {
		c := plan.NewScan(custT, "c_id", "c_seg", "c_bal")
		o := plan.NewScan(ordersT, "o_cust", "o_total")
		o.Where(expr.Lt(plan.C(o.Schema(), "o_cust"), expr.Int(0)))
		j := plan.NewJoin(kind, c, o,
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]expr.Expr{plan.C(o.Schema(), "o_cust")}, nil)
		if residual {
			comb := j.CombinedSchema()
			j.WithResidual(expr.Gt(plan.C(comb, "o_total"), plan.C(comb, "c_bal")))
		}
		return j
	}},
	// Every probe row matches every key-7 build row, from every worker: the
	// counts of those tuples are summed over all the workers' arrays.
	{"hot-key", func(kind plan.JoinKind, residual bool) plan.Node {
		h := plan.NewScan(hotT, "h_key", "h_val", "h_name")
		o := plan.NewScan(ordersT, "o_id", "o_total")
		j := plan.NewJoin(kind, h, o,
			[]expr.Expr{plan.C(h.Schema(), "h_key")},
			[]expr.Expr{expr.Int(7)}, nil)
		if residual {
			comb := j.CombinedSchema()
			j.WithResidual(expr.Gt(plan.C(comb, "o_total"), plan.C(comb, "h_val")))
		}
		return j
	}},
}

// TestBuildSideJoins runs every build-side kind, with and without a
// residual, over each case on every mode against Volcano.
func TestBuildSideJoins(t *testing.T) {
	engs := buildSideEngines()
	for _, c := range buildSideCases {
		for _, kind := range buildSideKinds {
			for _, residual := range []bool{false, true} {
				name := c.name + "/" + kind.String()
				if residual {
					name += "/residual"
				}
				checkPlanOn(t, name, func() plan.Node { return c.build(kind, residual) }, engs)
			}
		}
	}
}

// TestBuildSideJoinDownstream puts operators above the join scan: a filter
// on the count and an aggregation over the emitted rows (Q13's shape).
func TestBuildSideJoinDownstream(t *testing.T) {
	checkPlanOn(t, "rightcount-groupby", func() plan.Node {
		j := buildSideCases[0].build(plan.RightCount, false).(*plan.Join).Named("n")
		js := j.Schema()
		f := plan.NewFilter(j, expr.Lt(plan.C(js, "n"), expr.Int(3)))
		return plan.NewGroupBy(f, []expr.Expr{plan.C(js, "n")}, []string{"n"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "k"},
				{Func: plan.Sum, Arg: plan.C(js, "o_total"), Name: "s"}})
	}, buildSideEngines())
}

// q21Tables are a lineitem-like table (order, supplier, late flag) and an
// orders-like table (order, status) where orders have one to four lines
// from one to three suppliers, so every branch of Q21's EXISTS / NOT EXISTS
// pair occurs.
var q21Line, q21Ord = func() (*storage.Table, *storage.Table) {
	lo := storage.NewColumn("l_orderkey", storage.Int64)
	ls := storage.NewColumn("l_suppkey", storage.Int64)
	ll := storage.NewColumn("l_late", storage.Int64)
	oo := storage.NewColumn("o_orderkey", storage.Int64)
	os := storage.NewColumn("o_status", storage.Char)
	for o := 0; o < 1500; o++ {
		oo.AppendInt64(int64(o))
		os.AppendChar("FO"[o%5/4])
		for i := 0; i < 1+o%4; i++ {
			lo.AppendInt64(int64(o))
			ls.AppendInt64(int64((o*7 + i*(o%3)) % 40))
			if (o*5+i*i)%7 < 3 {
				ll.AppendInt64(1)
			} else {
				ll.AppendInt64(0)
			}
		}
	}
	return storage.NewTable("line", lo, ls, ll), storage.NewTable("ord", oo, os)
}()

// q21Chain is Q21's join chain on the synthetic tables: late lines of
// suppliers below 20 in F orders (RightSemi), with another supplier's line
// in the order (RightSemi with a residual) and no other supplier's late
// line (RightAnti with a residual).
func q21Chain() plan.Node {
	l1 := plan.NewScan(q21Line, "l_orderkey", "l_suppkey", "l_late")
	l1.Where(expr.And(expr.Eq(plan.C(l1.Schema(), "l_late"), expr.Int(1)),
		expr.Lt(plan.C(l1.Schema(), "l_suppkey"), expr.Int(20))))
	o := plan.NewScan(q21Ord, "o_orderkey", "o_status")
	o.Where(expr.Eq(plan.C(o.Schema(), "o_status"), expr.Ch('F')))
	j2 := plan.NewJoin(plan.RightSemi, l1, o,
		[]expr.Expr{plan.C(l1.Schema(), "l_orderkey")},
		[]expr.Expr{plan.C(o.Schema(), "o_orderkey")}, nil)
	l2 := plan.NewScan(q21Line, "l_orderkey", "l_suppkey")
	j3 := plan.NewJoin(plan.RightSemi, j2, l2,
		[]expr.Expr{plan.C(j2.Schema(), "l_orderkey")},
		[]expr.Expr{plan.C(l2.Schema(), "l_orderkey")}, nil)
	np3 := len(l2.Schema())
	j3.WithResidual(expr.Ne(plan.C(l2.Schema(), "l_suppkey"),
		expr.Col(plan.ColIdx(j2.Schema(), "l_suppkey")+np3, expr.TInt)))
	l3 := plan.NewScan(q21Line, "l_orderkey", "l_suppkey", "l_late")
	l3.Where(expr.Eq(plan.C(l3.Schema(), "l_late"), expr.Int(1)))
	j4 := plan.NewJoin(plan.RightAnti, j3, l3,
		[]expr.Expr{plan.C(j3.Schema(), "l_orderkey")},
		[]expr.Expr{plan.C(l3.Schema(), "l_orderkey")}, nil)
	np4 := len(l3.Schema())
	j4.WithResidual(expr.Ne(plan.C(l3.Schema(), "l_suppkey"),
		expr.Col(plan.ColIdx(j3.Schema(), "l_suppkey")+np4, expr.TInt)))
	js := j4.Schema()
	return plan.NewGroupBy(j4, []expr.Expr{plan.C(js, "l_suppkey")}, []string{"supp"},
		[]plan.AggExpr{{Func: plan.CountStar, Name: "numwait"}})
}

// TestQ21ShapedChain checks the RightSemi → RightSemi → RightAnti chain
// with residuals that Q21 runs (Q21 itself returns no rows at the scale
// factors the differential tests use).
func TestQ21ShapedChain(t *testing.T) {
	rows, err := volcano.Run(q21Chain())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("chain returns %d groups; the tables no longer exercise it", len(rows))
	}
	checkPlanOn(t, "q21-chain", q21Chain, buildSideEngines())
	// Mark probes evaluate every candidate's residual, so they are kernel
	// shapes, residual or not: every pipeline runs vectorized.
	res, err := New(Options{Workers: 2, Mode: ModeVector}).RunPlan(q21Chain(), "q21-vector")
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Stats.FinalLevels {
		if l != LevelVector {
			t.Errorf("pipeline %d finished at %v, want the vectorized engine", i, l)
		}
	}
}

// TestModeSwitchStressBuildSide flips every pipeline of the Q21-shaped
// chain between the levels at every morsel (TestModeSwitchStress's hook):
// the workers' count arrays are written by native code, bytecode and batch
// kernels alike within one probe pipeline.
func TestModeSwitchStressBuildSide(t *testing.T) {
	modeSwitchStress(t, q21Chain)
}

// TestBuildRowsMatchesVolcano checks Stats.BuildRows against the rows of
// every join's build input, counted by Volcano.
func TestBuildRowsMatchesVolcano(t *testing.T) {
	for _, node := range []plan.Node{q21Chain(), stressPlan(),
		buildSideCases[0].build(plan.RightCount, true)} {
		var want int64
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			if j, ok := n.(*plan.Join); ok {
				rows, err := volcano.Run(j.Build)
				if err != nil {
					t.Fatal(err)
				}
				want += int64(len(rows))
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(node)
		res, err := New(Options{Workers: 2, Mode: ModeBytecode}).RunPlan(node, "buildrows")
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BuildRows != want || want == 0 {
			t.Errorf("BuildRows = %d, Volcano's build inputs hold %d rows", res.Stats.BuildRows, want)
		}
	}
}

// TestFingerprintBuildSideKinds: RightSemi and RightAnti over the same
// inputs generate the same IR and differ only in the rows the engine
// emits, so the fingerprint must carry the kind.
func TestFingerprintBuildSideKinds(t *testing.T) {
	c := buildSideCases[0]
	semi := fpOf(t, c.build(plan.RightSemi, true))
	anti := fpOf(t, c.build(plan.RightAnti, true))
	if semi == anti {
		t.Fatal("RightSemi and RightAnti share a fingerprint")
	}
	// Both kinds through one cached engine: each must miss cold and return
	// its own rows.
	e := New(Options{Workers: 2, Mode: ModeBytecode, CacheBytes: 1 << 20})
	for _, kind := range []plan.JoinKind{plan.RightSemi, plan.RightAnti} {
		want, err := volcano.Run(c.build(kind, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPlan(c.build(kind, true), kind.String())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHit {
			t.Errorf("%v: first run hit the cache", kind)
		}
		if len(res.Rows) != len(want) {
			t.Errorf("%v: %d rows, want %d", kind, len(res.Rows), len(want))
		}
	}
}
