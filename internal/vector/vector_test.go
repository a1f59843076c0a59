// Package vector_test holds the engine-equivalence contract of the
// configurations that once named the vectorized engine. That engine is
// gone: exec.ModeVector is a deprecated alias of exec.ModeBytecode, and
// these tests pin that the alias keeps its promise — every pipeline in
// bytecode, rows identical to the Volcano interpreter and the compiled
// tiers, and traps where they trap.
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

// TestVectorDifferential22 runs all 22 TPC-H queries under the deprecated
// ModeVector and the adaptive configuration and asserts result checksums
// identical to the all-compiled baseline. ModeVector must run every
// pipeline in bytecode and count no vectorized morsel.
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
	}
	want := make(map[int][]string)
	for _, cfg := range configs {
		e := exec.New(cfg.opts)
		for qn := 1; qn <= 22; qn++ {
			res, err := e.Run(tpch.Query(cat, qn))
			if err != nil {
				t.Fatalf("%s Q%d: %v", cfg.name, qn, err)
			}
			if cfg.opts.Mode == exec.ModeVector {
				if res.Stats.VectorMorsels != 0 {
					t.Errorf("%s Q%d: %d vectorized morsels, want 0", cfg.name, qn, res.Stats.VectorMorsels)
				}
				for i, l := range res.Stats.FinalLevels {
					if l != exec.LevelBytecode {
						t.Errorf("%s Q%d: pipeline %d finished in %v, want bytecode", cfg.name, qn, i, l)
					}
				}
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
// scan→filter→aggregate plans and asserts the deprecated ModeVector (that
// is, bytecode) matches the Volcano interpreter row for row. This exercises
// comparison, arithmetic with decimal rescaling, short-circuit logic,
// LIKE, IN and CASE against the tree-walking reference on data with
// negative values, NaN-free floats and empty strings.
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
			t.Fatalf("trial %d: ModeVector: %v", trial, err)
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
// under the deprecated ModeVector exactly like the compiled tiers — an
// error, not a wrapped-around result.
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
