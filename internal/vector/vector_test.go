// Package vector_test checks the engine-equivalence contract from the
// outside: the vectorized kernels, driven through the public engine under
// forced and hybrid configurations, must produce bit-identical results to
// the Volcano interpreter and the compiled tiers on every plan shape. The
// tests live in an external package because internal/exec imports
// internal/vector; the differential net needs both.
package vector_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

var diffCat = sync.OnceValue(func() *storage.Catalog { return tpch.Gen(0.003) })

// canon renders rows into sorted canonical strings for order-insensitive
// comparison; floats are rounded to absorb parallel summation order.
func canon(rows [][]expr.Datum, types []expr.Type) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for j, d := range row {
			switch types[j].Kind {
			case expr.KFloat:
				fmt.Fprintf(&sb, "|%.6g", d.F)
			case expr.KString:
				fmt.Fprintf(&sb, "|%s", d.S)
			default:
				fmt.Fprintf(&sb, "|%d", d.I)
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func typesOf(schema []plan.ColDef) []expr.Type {
	out := make([]expr.Type, len(schema))
	for i, c := range schema {
		out[i] = c.T
	}
	return out
}

// TestVectorDifferential22 runs all 22 TPC-H queries under the vectorized
// and hybrid engine configurations and asserts result checksums identical
// to the all-compiled baseline, warm and cold. The forced-vector engine
// must actually execute kernels (pipelines whose shape the kernel compiler
// rejects fall back per-pipeline, but not all of them).
func TestVectorDifferential22(t *testing.T) {
	cat := diffCat()
	configs := []struct {
		name string
		opts exec.Options
	}{
		{"baseline-optimized", exec.Options{Workers: 4, Mode: exec.ModeOptimized, Cost: exec.Native()}},
		{"forced-vector", exec.Options{Workers: 4, Mode: exec.ModeVector, Cost: exec.Native(),
			MorselSize: 512, CacheBytes: 64 << 20}},
		{"forced-vector-w1", exec.Options{Workers: 1, Mode: exec.ModeVector, Cost: exec.Native()}},
		{"hybrid-auto", exec.Options{Workers: 4, Mode: exec.ModeAdaptive, Cost: exec.Native(),
			MorselSize: 512, CacheBytes: 64 << 20}},
		{"hybrid-no-vector", exec.Options{Workers: 4, Mode: exec.ModeAdaptive, Cost: exec.Native(),
			NoVector: true, MorselSize: 512, CacheBytes: 64 << 20}},
	}
	want := make(map[int][]string)
	var vectorMorsels int64
	for _, cfg := range configs {
		e := exec.New(cfg.opts)
		for qn := 1; qn <= 22; qn++ {
			res, err := e.Run(tpch.Query(cat, qn))
			if err != nil {
				t.Fatalf("%s Q%d: %v", cfg.name, qn, err)
			}
			if cfg.opts.Mode == exec.ModeVector {
				vectorMorsels += res.Stats.VectorMorsels
			}
			got := canon(res.Rows, res.Types)
			if cfg.name == "baseline-optimized" {
				want[qn] = got
				continue
			}
			w := want[qn]
			if len(got) != len(w) {
				t.Errorf("%s Q%d: %d rows, want %d", cfg.name, qn, len(got), len(w))
				continue
			}
			for i := range got {
				if got[i] != w[i] {
					t.Errorf("%s Q%d: row %d\n got %s\nwant %s", cfg.name, qn, i, got[i], w[i])
					break
				}
			}
		}
	}
	if vectorMorsels == 0 {
		t.Error("forced-vector configs never executed a vectorized morsel")
	}
}

// mkRandTable builds a table with every storable column family for the
// property test.
func mkRandTable(n int, rng *rand.Rand) *storage.Table {
	a := storage.NewColumn("a", storage.Int64)
	b := storage.NewColumn("b", storage.Int64)
	d := storage.NewColumn("d", storage.Decimal)
	f := storage.NewColumn("f", storage.Float64)
	dt := storage.NewColumn("dt", storage.Date)
	ch := storage.NewColumn("ch", storage.Char)
	s := storage.NewColumn("s", storage.String)
	words := []string{"alpha", "bravo brown", "charlie", "delta deposits",
		"echo", "foxtrot fox", ""}
	for i := 0; i < n; i++ {
		a.AppendInt64(int64(rng.Intn(200) - 100))
		b.AppendInt64(int64(rng.Intn(50)))
		d.AppendInt64(int64(rng.Intn(100000) - 20000))
		f.AppendFloat64(rng.NormFloat64() * 100)
		dt.AppendInt64(int64(8000 + rng.Intn(4000)))
		ch.AppendChar(byte("XYZ"[rng.Intn(3)]))
		s.AppendString(words[rng.Intn(len(words))])
	}
	return storage.NewTable("rnd", a, b, d, f, dt, ch, s)
}

// randPred builds a random boolean predicate over the random table's
// schema: comparisons over int/decimal/float/date/string columns and
// arithmetic thereof, composed with AND/OR/NOT, LIKE, IN and CASE.
func randPred(sch []plan.ColDef, rng *rand.Rand, depth int) expr.Expr {
	if depth > 2 || rng.Intn(3) == 0 {
		// Leaf comparison.
		switch rng.Intn(6) {
		case 0:
			return expr.Gt(plan.C(sch, "a"), expr.Int(int64(rng.Intn(120)-60)))
		case 1:
			l := expr.Add(plan.C(sch, "d"), expr.Dec(int64(rng.Intn(1000)), 2))
			return expr.Le(l, expr.Dec(int64(rng.Intn(100000)-10000), 2))
		case 2:
			return expr.Lt(plan.C(sch, "f"), expr.Float(rng.NormFloat64()*80))
		case 3:
			return expr.Between(plan.C(sch, "dt"),
				expr.Date(int64(8000+rng.Intn(2000))), expr.Date(int64(9500+rng.Intn(2500))))
		case 4:
			pats := []string{"%o%", "a%", "%x", "%fo%", "charlie"}
			return expr.Like(plan.C(sch, "s"), pats[rng.Intn(len(pats))])
		default:
			return expr.In(plan.C(sch, "b"),
				expr.Int(int64(rng.Intn(50))), expr.Int(int64(rng.Intn(50))),
				expr.Int(int64(rng.Intn(50))))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return expr.And(randPred(sch, rng, depth+1), randPred(sch, rng, depth+1))
	case 1:
		return expr.Or(randPred(sch, rng, depth+1), randPred(sch, rng, depth+1))
	default:
		return expr.Not(randPred(sch, rng, depth+1))
	}
}

// TestVectorPropertyRandomPredicates builds many random
// scan→filter→aggregate plans and asserts the forced-vector engine matches
// the Volcano interpreter row for row. This exercises the typed kernels
// (comparison, arithmetic with decimal rescaling, short-circuit logic,
// LIKE, IN, CASE) against the tree-walking reference on data with negative
// values, NaN-free floats and empty strings.
func TestVectorPropertyRandomPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := mkRandTable(4000, rng)
	e := exec.New(exec.Options{Workers: 3, Mode: exec.ModeVector, Cost: exec.Native(),
		MorselSize: 256})
	for trial := 0; trial < 40; trial++ {
		build := func() plan.Node {
			sc := plan.NewScan(tb, "a", "b", "d", "f", "dt", "ch", "s")
			sch := sc.Schema()
			r := rand.New(rand.NewSource(int64(trial)))
			sc.Where(randPred(sch, r, 0))
			return plan.NewGroupBy(sc,
				[]expr.Expr{plan.C(sch, "b")}, []string{"b"},
				[]plan.AggExpr{
					{Func: plan.CountStar, Name: "n"},
					{Func: plan.Sum, Arg: plan.C(sch, "a"), Name: "sa"},
					{Func: plan.Min, Arg: plan.C(sch, "d"), Name: "mind"},
					{Func: plan.Max, Arg: plan.C(sch, "f"), Name: "maxf"},
					{Func: plan.Avg, Arg: plan.C(sch, "d"), Name: "avgd"},
				})
		}
		ref := build()
		want, err := volcano.Run(ref)
		if err != nil {
			t.Fatalf("trial %d: volcano: %v", trial, err)
		}
		wantC := canon(want, typesOf(ref.Schema()))
		res, err := e.RunPlan(build(), fmt.Sprintf("prop%d", trial))
		if err != nil {
			t.Fatalf("trial %d: vector: %v", trial, err)
		}
		gotC := canon(res.Rows, res.Types)
		if len(gotC) != len(wantC) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("trial %d row %d:\n got %s\nwant %s", trial, i, gotC[i], wantC[i])
			}
		}
	}
}

// TestVectorTrapParity: a query whose aggregation overflows int64 must trap
// under the vectorized engine exactly like the compiled tiers — an error,
// not a wrapped-around result.
func TestVectorTrapParity(t *testing.T) {
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < 100; i++ {
		v.AppendInt64(math.MaxInt64 / 3)
	}
	tb := storage.NewTable("ovf", v)
	build := func() plan.Node {
		sc := plan.NewScan(tb, "v")
		return plan.NewGroupBy(sc, nil, nil,
			[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(sc.Schema(), "v"), Name: "s"}})
	}
	for _, mode := range []exec.Mode{exec.ModeOptimized, exec.ModeVector} {
		e := exec.New(exec.Options{Workers: 1, Mode: mode, Cost: exec.Native()})
		if _, err := e.RunPlan(build(), "ovf"); err == nil {
			t.Errorf("%v: overflowing sum did not trap", mode)
		}
	}
}

// TestVectorDivZeroParity: per-tuple division by zero behind a filter traps
// in neither engine when the filter removes the zero rows (the evaluation
// set contract), and traps in both when it does not.
func TestVectorDivZeroParity(t *testing.T) {
	a := storage.NewColumn("a", storage.Int64)
	b := storage.NewColumn("b", storage.Int64)
	for i := 0; i < 1000; i++ {
		a.AppendInt64(int64(i))
		b.AppendInt64(int64(i % 5)) // zeros at every i%5==0
	}
	tb := storage.NewTable("dz", a, b)
	build := func(filtered bool) plan.Node {
		sc := plan.NewScan(tb, "a", "b")
		sch := sc.Schema()
		if filtered {
			sc.Where(expr.Gt(plan.C(sch, "b"), expr.Int(0)))
		}
		return plan.NewGroupBy(sc, nil, nil,
			[]plan.AggExpr{{Func: plan.Sum,
				Arg: expr.Div(plan.C(sch, "a"), plan.C(sch, "b")), Name: "q"}})
	}
	for _, mode := range []exec.Mode{exec.ModeOptimized, exec.ModeVector} {
		e := exec.New(exec.Options{Workers: 1, Mode: mode, Cost: exec.Native()})
		if _, err := e.RunPlan(build(false), "dz-unfiltered"); err == nil {
			t.Errorf("%v: unfiltered division by zero did not trap", mode)
		}
		res, err := e.RunPlan(build(true), "dz-filtered")
		if err != nil {
			t.Errorf("%v: filtered division trapped: %v", mode, err)
		} else if len(res.Rows) != 1 {
			t.Errorf("%v: %d rows, want 1", mode, len(res.Rows))
		}
	}
}

// TestVectorJoinShapes covers each join kind through the vectorized probe
// against the Volcano reference, including residual predicates on inner
// joins and the count column of outer-count joins.
func TestVectorJoinShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := mkRandTable(300, rng)
	factA := storage.NewColumn("fk", storage.Int64)
	factV := storage.NewColumn("fv", storage.Decimal)
	for i := 0; i < 5000; i++ {
		factA.AppendInt64(int64(rng.Intn(80) - 10)) // misses on both ends
		factV.AppendInt64(int64(rng.Intn(10000)))
	}
	fact := storage.NewTable("fact", factA, factV)

	cases := []struct {
		name     string
		kind     plan.JoinKind
		residual bool
	}{
		{"inner", plan.Inner, false},
		{"inner-residual", plan.Inner, true},
		{"semi", plan.Semi, false},
		{"anti", plan.Anti, false},
		{"outer-count", plan.OuterCount, false},
	}
	e := exec.New(exec.Options{Workers: 4, Mode: exec.ModeVector, Cost: exec.Native(),
		MorselSize: 512})
	for _, tc := range cases {
		build := func() plan.Node {
			d := plan.NewScan(dim, "b", "d")
			f := plan.NewScan(fact, "fk", "fv")
			var payload []string
			if tc.kind == plan.Inner {
				payload = []string{"d"}
			}
			j := plan.NewJoin(tc.kind, d, f,
				[]expr.Expr{plan.C(d.Schema(), "b")},
				[]expr.Expr{plan.C(f.Schema(), "fk")},
				payload)
			if tc.residual {
				jsch := j.Schema()
				j.WithResidual(expr.Gt(plan.C(jsch, "d"), expr.Dec(0, 2)))
			}
			jsch := j.Schema()
			aggs := []plan.AggExpr{{Func: plan.CountStar, Name: "n"},
				{Func: plan.Sum, Arg: plan.C(jsch, "fv"), Name: "sv"}}
			if tc.kind == plan.OuterCount {
				aggs = append(aggs, plan.AggExpr{Func: plan.Sum,
					Arg: plan.C(jsch, "match_count"), Name: "mc"})
			}
			return plan.NewGroupBy(j, nil, nil, aggs)
		}
		ref := build()
		want, err := volcano.Run(ref)
		if err != nil {
			t.Fatalf("%s: volcano: %v", tc.name, err)
		}
		wantC := canon(want, typesOf(ref.Schema()))
		res, err := e.RunPlan(build(), "join-"+tc.name)
		if err != nil {
			t.Fatalf("%s: vector: %v", tc.name, err)
		}
		gotC := canon(res.Rows, res.Types)
		if fmt.Sprint(gotC) != fmt.Sprint(wantC) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, gotC, wantC)
		}
	}
}
