// Package synth generates the machine-generated queries of the paper's
// §V-E: a single table scan with an increasing number of aggregate
// expressions, yielding query plans from about a thousand to 160k IR
// instructions, most of them in one large worker function. It stands in
// for the paper's business-intelligence workloads and for TPC-DS as the
// source of additional plan-size data points in Fig. 6 (DESIGN.md §1).
package synth

import (
	"math/rand"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// Table builds the synthetic fact table the wide queries scan.
func Table(rows int) *storage.Table {
	rng := rand.New(rand.NewSource(7))
	a := storage.NewColumn("a", storage.Int64)
	b := storage.NewColumn("b", storage.Int64)
	c := storage.NewColumn("c", storage.Decimal)
	d := storage.NewColumn("d", storage.Decimal)
	e := storage.NewColumn("e", storage.Int64)
	for i := 0; i < rows; i++ {
		a.AppendInt64(int64(rng.Intn(1000)))
		b.AppendInt64(int64(rng.Intn(100)))
		c.AppendInt64(int64(rng.Intn(100000)))
		d.AppendInt64(int64(rng.Intn(10000)))
		e.AppendInt64(int64(rng.Intn(50)))
	}
	t := storage.NewTable("synth", a, b, c, d, e)
	t.BuildZoneMaps(storage.DefaultZoneBlockRows)
	return t
}

// WideAggPlan builds a scan of t with nAggs distinct aggregate
// expressions, the §V-E query shape ("a single table scan and an
// increasing number of aggregate expressions"). Each aggregate's argument
// is a small arithmetic expression with overflow checks, so the generated
// worker function grows by a near-constant number of IR instructions per
// aggregate.
func WideAggPlan(t *storage.Table, nAggs int) plan.Node {
	s := plan.NewScan(t, "a", "b", "c", "d", "e")
	sch := s.Schema()
	rng := rand.New(rand.NewSource(int64(nAggs)))
	aggs := make([]plan.AggExpr, nAggs)
	cols := []expr.Expr{
		plan.C(sch, "a"), plan.C(sch, "b"), plan.C(sch, "e"),
	}
	decCols := []expr.Expr{plan.C(sch, "c"), plan.C(sch, "d")}
	for i := range aggs {
		// arg = (c|d) * (small + (a|b|e) + i%7) — checked multiply and
		// adds, distinct constants so CSE cannot collapse the aggregates.
		base := decCols[rng.Intn(2)]
		k := cols[rng.Intn(3)]
		arg := expr.Mul(base,
			expr.Rescale(expr.Add(expr.Add(k, expr.Int(int64(i%97+1))),
				expr.Mul(k, expr.Int(int64(i%13+1)))), 2))
		var fn plan.AggFunc
		switch i % 4 {
		case 0:
			fn = plan.Sum
		case 1:
			fn = plan.Min
		case 2:
			fn = plan.Max
		default:
			fn = plan.Avg
		}
		aggs[i] = plan.AggExpr{Func: fn, Arg: arg, Name: aggName(i)}
	}
	return plan.NewGroupBy(s, []expr.Expr{plan.C(sch, "b")}, []string{"b"}, aggs)
}

func aggName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	name := []byte{'x'}
	for {
		name = append(name, letters[i%26])
		i /= 26
		if i == 0 {
			return string(name)
		}
	}
}
