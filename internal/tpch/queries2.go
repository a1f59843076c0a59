package tpch

import (
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// Q12: shipping modes and order priority.
func Q12(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q12", func() plan.Node {
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_orderpriority")
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate")
		ls := l.Schema()
		l.Where(expr.And(
			expr.In(col(ls, "l_shipmode"), expr.Str("MAIL"), expr.Str("SHIP")),
			expr.Lt(col(ls, "l_commitdate"), col(ls, "l_receiptdate")),
			expr.Lt(col(ls, "l_shipdate"), col(ls, "l_commitdate")),
			expr.Ge(col(ls, "l_receiptdate"), date("1994-01-01")),
			expr.Lt(col(ls, "l_receiptdate"), date("1995-01-01"))))
		j := plan.NewJoin(plan.Inner, l, o,
			[]expr.Expr{col(ls, "l_orderkey")},
			[]expr.Expr{col(o.Schema(), "o_orderkey")},
			[]string{"l_shipmode"})
		js := j.Schema()
		isHigh := expr.In(col(js, "o_orderpriority"),
			expr.Str("1-URGENT"), expr.Str("2-HIGH"))
		g := plan.NewGroupBy(j,
			[]expr.Expr{col(js, "l_shipmode")}, []string{"l_shipmode"},
			[]plan.AggExpr{
				{Func: plan.Sum, Arg: expr.Case(
					[]expr.When{{Cond: isHigh, Then: expr.Int(1)}}, expr.Int(0)),
					Name: "high_line_count"},
				{Func: plan.Sum, Arg: expr.Case(
					[]expr.When{{Cond: expr.Not(isHigh), Then: expr.Int(1)}}, expr.Int(0)),
					Name: "low_line_count"},
			})
		return plan.NewOrderBy(g, []plan.SortKey{asc(col(g.Schema(), "l_shipmode"))}, -1)
	})
}

// Q13: customer distribution — a count join over the customers (customers
// with zero orders must appear), built on the customers and probed by the
// orders.
func Q13(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q13", func() plan.Node {
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_comment")
		o.Where(expr.NotLike(col(o.Schema(), "o_comment"), "%special%requests%"))
		c := plan.NewScan(cat.Table("customer"), "c_custkey")
		j := plan.NewJoin(plan.RightCount, c, o,
			[]expr.Expr{col(c.Schema(), "c_custkey")},
			[]expr.Expr{col(o.Schema(), "o_custkey")}, nil).Named("c_count")
		js := j.Schema()
		g := plan.NewGroupBy(j,
			[]expr.Expr{col(js, "c_count")}, []string{"c_count"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "custdist"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			desc(col(gs, "custdist")), desc(col(gs, "c_count"))}, -1)
	})
}

// Q14: promotion effect.
func Q14(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q14", func() plan.Node {
		p := plan.NewScan(cat.Table("part"), "p_partkey", "p_type")
		l := plan.NewScan(cat.Table("lineitem"),
			"l_partkey", "l_extendedprice", "l_discount", "l_shipdate")
		l.Where(expr.And(
			expr.Ge(col(l.Schema(), "l_shipdate"), date("1995-09-01")),
			expr.Lt(col(l.Schema(), "l_shipdate"), date("1995-10-01"))))
		j := plan.NewJoin(plan.Inner, l, p,
			[]expr.Expr{col(l.Schema(), "l_partkey")},
			[]expr.Expr{col(p.Schema(), "p_partkey")},
			[]string{"l_extendedprice", "l_discount"})
		js := j.Schema()
		vol := discPrice(js)
		promo := expr.Case([]expr.When{{
			Cond: expr.Like(col(js, "p_type"), "PROMO%"),
			Then: vol,
		}}, expr.Dec(0, 4))
		g := plan.NewGroupBy(j, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: promo, Name: "promo"},
			{Func: plan.Sum, Arg: vol, Name: "total"},
		})
		gs := g.Schema()
		return plan.NewProject(g,
			[]expr.Expr{expr.Mul(expr.Float(100),
				expr.Div(col(gs, "promo"), col(gs, "total")))},
			[]string{"promo_revenue"})
	})
}

// Q15: top supplier. The revenue view is stage 1, its max stage 2.
func Q15(cat *storage.Catalog) plan.Query {
	return plan.Query{Name: "Q15", Stages: []plan.Stage{
		{Name: "revenue", Build: func(map[string]*storage.Table) plan.Node {
			l := plan.NewScan(cat.Table("lineitem"),
				"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
			l.Where(expr.And(
				expr.Ge(col(l.Schema(), "l_shipdate"), date("1996-01-01")),
				expr.Lt(col(l.Schema(), "l_shipdate"), date("1996-04-01"))))
			return plan.NewGroupBy(l,
				[]expr.Expr{col(l.Schema(), "l_suppkey")}, []string{"supplier_no"},
				[]plan.AggExpr{{Func: plan.Sum, Arg: discPrice(l.Schema()),
					Name: "total_revenue"}})
		}},
		{Name: "maxrev", Build: func(prior map[string]*storage.Table) plan.Node {
			rv := plan.NewScan(prior["revenue"], "supplier_no", "total_revenue")
			return plan.NewGroupBy(rv, nil, nil, []plan.AggExpr{
				{Func: plan.Max, Arg: col(rv.Schema(), "total_revenue"), Name: "m"}})
		}},
		{Name: "result", Build: func(prior map[string]*storage.Table) plan.Node {
			m := prior["maxrev"].MustCol("m").Int64At(0)
			rv := plan.NewScan(prior["revenue"], "supplier_no", "total_revenue")
			rv.Where(expr.Eq(col(rv.Schema(), "total_revenue"), expr.Dec(m, 4)))
			s := plan.NewScan(cat.Table("supplier"),
				"s_suppkey", "s_name", "s_address", "s_phone")
			j := plan.NewJoin(plan.Inner, rv, s,
				[]expr.Expr{col(rv.Schema(), "supplier_no")},
				[]expr.Expr{col(s.Schema(), "s_suppkey")},
				[]string{"total_revenue"})
			return plan.NewOrderBy(j, []plan.SortKey{asc(col(j.Schema(), "s_suppkey"))}, -1)
		}},
	}}
}

// Q16: parts/supplier relationship. COUNT(DISTINCT) lowers to two
// aggregations; the NOT IN complaint subquery to an anti join.
func Q16(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q16", func() plan.Node {
		p := plan.NewScan(cat.Table("part"), "p_partkey", "p_brand", "p_type", "p_size")
		psch := p.Schema()
		p.Where(expr.And(
			expr.Ne(col(psch, "p_brand"), expr.Str("Brand#45")),
			expr.NotLike(col(psch, "p_type"), "MEDIUM POLISHED%"),
			expr.In(col(psch, "p_size"), expr.Int(49), expr.Int(14), expr.Int(23),
				expr.Int(45), expr.Int(19), expr.Int(3), expr.Int(36), expr.Int(9))))
		bad := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_comment")
		bad.Where(expr.Like(col(bad.Schema(), "s_comment"), "%Customer%Complaints%"))
		ps := plan.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey")
		j := plan.NewJoin(plan.Inner, p, ps,
			[]expr.Expr{col(psch, "p_partkey")},
			[]expr.Expr{col(ps.Schema(), "ps_partkey")},
			[]string{"p_brand", "p_type", "p_size"})
		ja := plan.NewJoin(plan.Anti, bad, j,
			[]expr.Expr{col(bad.Schema(), "s_suppkey")},
			[]expr.Expr{col(j.Schema(), "ps_suppkey")}, nil)
		jas := ja.Schema()
		// Distinct (brand, type, size, suppkey), then count per group.
		dedup := plan.NewGroupBy(ja,
			[]expr.Expr{col(jas, "p_brand"), col(jas, "p_type"), col(jas, "p_size"),
				col(jas, "ps_suppkey")},
			[]string{"p_brand", "p_type", "p_size", "ps_suppkey"}, nil)
		ds := dedup.Schema()
		g := plan.NewGroupBy(dedup,
			[]expr.Expr{col(ds, "p_brand"), col(ds, "p_type"), col(ds, "p_size")},
			[]string{"p_brand", "p_type", "p_size"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "supplier_cnt"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			desc(col(gs, "supplier_cnt")), asc(col(gs, "p_brand")),
			asc(col(gs, "p_type")), asc(col(gs, "p_size"))}, -1)
	})
}

// Q17: small-quantity-order revenue. The correlated average becomes a
// per-part aggregation stage.
func Q17(cat *storage.Catalog) plan.Query {
	filteredPart := func() *plan.Scan {
		p := plan.NewScan(cat.Table("part"), "p_partkey", "p_brand", "p_container")
		p.Where(expr.And(
			expr.Eq(col(p.Schema(), "p_brand"), expr.Str("Brand#23")),
			expr.Eq(col(p.Schema(), "p_container"), expr.Str("MED BOX"))))
		return p
	}
	return plan.Query{Name: "Q17", Stages: []plan.Stage{
		{Name: "partavg", Build: func(map[string]*storage.Table) plan.Node {
			p := filteredPart()
			l := plan.NewScan(cat.Table("lineitem"), "l_partkey", "l_quantity")
			j := plan.NewJoin(plan.Semi, p, l,
				[]expr.Expr{col(p.Schema(), "p_partkey")},
				[]expr.Expr{col(l.Schema(), "l_partkey")}, nil)
			return plan.NewGroupBy(j,
				[]expr.Expr{col(j.Schema(), "l_partkey")}, []string{"pa_partkey"},
				[]plan.AggExpr{{Func: plan.Avg, Arg: col(j.Schema(), "l_quantity"),
					Name: "pa_avgqty"}})
		}},
		{Name: "result", Build: func(prior map[string]*storage.Table) plan.Node {
			p := filteredPart()
			pa := plan.NewScan(prior["partavg"], "pa_partkey", "pa_avgqty")
			l := plan.NewScan(cat.Table("lineitem"),
				"l_partkey", "l_quantity", "l_extendedprice")
			j1 := plan.NewJoin(plan.Semi, p, l,
				[]expr.Expr{col(p.Schema(), "p_partkey")},
				[]expr.Expr{col(l.Schema(), "l_partkey")}, nil)
			j2 := plan.NewJoin(plan.Inner, pa, j1,
				[]expr.Expr{col(pa.Schema(), "pa_partkey")},
				[]expr.Expr{col(j1.Schema(), "l_partkey")},
				[]string{"pa_avgqty"})
			js := j2.Schema()
			f := plan.NewFilter(j2, expr.Lt(
				expr.ToFloat(col(js, "l_quantity")),
				expr.Mul(expr.Float(0.2), col(js, "pa_avgqty"))))
			g := plan.NewGroupBy(f, nil, nil, []plan.AggExpr{
				{Func: plan.Sum, Arg: col(js, "l_extendedprice"), Name: "total"}})
			gs := g.Schema()
			return plan.NewProject(g,
				[]expr.Expr{expr.Div(expr.ToFloat(col(gs, "total")), expr.Float(7))},
				[]string{"avg_yearly"})
		}},
	}}
}

// Q18: large-volume customers.
func Q18(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q18", func() plan.Node {
		l := plan.NewScan(cat.Table("lineitem"), "l_orderkey", "l_quantity")
		big := plan.NewGroupBy(l,
			[]expr.Expr{col(l.Schema(), "l_orderkey")}, []string{"bo_orderkey"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: col(l.Schema(), "l_quantity"),
				Name: "bo_qty"}})
		bigF := plan.NewFilter(big,
			expr.Gt(col(big.Schema(), "bo_qty"), expr.Dec(30000, 2)))
		c := plan.NewScan(cat.Table("customer"), "c_custkey", "c_name")
		o := plan.NewScan(cat.Table("orders"),
			"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice")
		j1 := plan.NewJoin(plan.Inner, bigF, o,
			[]expr.Expr{col(bigF.Schema(), "bo_orderkey")},
			[]expr.Expr{col(o.Schema(), "o_orderkey")},
			[]string{"bo_qty"})
		j2 := plan.NewJoin(plan.Inner, j1, c,
			[]expr.Expr{col(j1.Schema(), "o_custkey")},
			[]expr.Expr{col(c.Schema(), "c_custkey")},
			[]string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice", "bo_qty"})
		js := j2.Schema()
		pr := plan.NewProject(j2,
			[]expr.Expr{col(js, "c_name"), col(js, "o_custkey"), col(js, "o_orderkey"),
				col(js, "o_orderdate"), col(js, "o_totalprice"), col(js, "bo_qty")},
			[]string{"c_name", "c_custkey", "o_orderkey", "o_orderdate",
				"o_totalprice", "sum_qty"})
		prs := pr.Schema()
		return plan.NewOrderBy(pr, []plan.SortKey{
			desc(col(prs, "o_totalprice")), asc(col(prs, "o_orderdate")),
			asc(col(prs, "o_orderkey"))}, 100)
	})
}

// Q19: discounted revenue — the three-way disjunctive join predicate.
func Q19(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q19", func() plan.Node {
		p := plan.NewScan(cat.Table("part"),
			"p_partkey", "p_brand", "p_container", "p_size")
		l := plan.NewScan(cat.Table("lineitem"),
			"l_partkey", "l_quantity", "l_extendedprice", "l_discount",
			"l_shipinstruct", "l_shipmode")
		ls := l.Schema()
		l.Where(expr.And(
			expr.Eq(col(ls, "l_shipinstruct"), expr.Str("DELIVER IN PERSON")),
			expr.In(col(ls, "l_shipmode"), expr.Str("AIR"), expr.Str("REG AIR"))))
		j := plan.NewJoin(plan.Inner, p, l,
			[]expr.Expr{col(p.Schema(), "p_partkey")},
			[]expr.Expr{col(ls, "l_partkey")}, nil)
		comb := j.CombinedSchema()
		qty := func(lo, hi int64) expr.Expr {
			return expr.Between(col(comb, "l_quantity"),
				expr.Dec(lo*100, 2), expr.Dec(hi*100, 2))
		}
		size := func(hi int64) expr.Expr {
			return expr.Between(col(comb, "p_size"), expr.Int(1), expr.Int(hi))
		}
		branch1 := expr.And(
			expr.Eq(col(comb, "p_brand"), expr.Str("Brand#12")),
			expr.In(col(comb, "p_container"), expr.Str("SM CASE"), expr.Str("SM BOX"),
				expr.Str("SM PACK"), expr.Str("SM PKG")),
			qty(1, 11), size(5))
		branch2 := expr.And(
			expr.Eq(col(comb, "p_brand"), expr.Str("Brand#23")),
			expr.In(col(comb, "p_container"), expr.Str("MED BAG"), expr.Str("MED BOX"),
				expr.Str("MED PKG"), expr.Str("MED PACK")),
			qty(10, 20), size(10))
		branch3 := expr.And(
			expr.Eq(col(comb, "p_brand"), expr.Str("Brand#34")),
			expr.In(col(comb, "p_container"), expr.Str("LG CASE"), expr.Str("LG BOX"),
				expr.Str("LG PACK"), expr.Str("LG PKG")),
			qty(20, 30), size(15))
		j.WithResidual(expr.Or(branch1, branch2, branch3))
		return plan.NewGroupBy(j, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: discPrice(j.Schema()), Name: "revenue"}})
	})
}

// Q20: potential part promotion. The correlated half-year sales subquery
// becomes a per-(part,supplier) aggregation stage.
func Q20(cat *storage.Catalog) plan.Query {
	return plan.Query{Name: "Q20", Stages: []plan.Stage{
		{Name: "sold", Build: func(map[string]*storage.Table) plan.Node {
			l := plan.NewScan(cat.Table("lineitem"),
				"l_partkey", "l_suppkey", "l_quantity", "l_shipdate")
			l.Where(expr.And(
				expr.Ge(col(l.Schema(), "l_shipdate"), date("1994-01-01")),
				expr.Lt(col(l.Schema(), "l_shipdate"), date("1995-01-01"))))
			return plan.NewGroupBy(l,
				[]expr.Expr{col(l.Schema(), "l_partkey"), col(l.Schema(), "l_suppkey")},
				[]string{"sq_partkey", "sq_suppkey"},
				[]plan.AggExpr{{Func: plan.Sum, Arg: col(l.Schema(), "l_quantity"),
					Name: "sq_qty"}})
		}},
		{Name: "result", Build: func(prior map[string]*storage.Table) plan.Node {
			p := plan.NewScan(cat.Table("part"), "p_partkey", "p_name")
			p.Where(expr.Like(col(p.Schema(), "p_name"), "forest%"))
			sold := plan.NewScan(prior["sold"], "sq_partkey", "sq_suppkey", "sq_qty")
			ps := plan.NewScan(cat.Table("partsupp"),
				"ps_partkey", "ps_suppkey", "ps_availqty")
			j1 := plan.NewJoin(plan.Semi, p, ps,
				[]expr.Expr{col(p.Schema(), "p_partkey")},
				[]expr.Expr{col(ps.Schema(), "ps_partkey")}, nil)
			j2 := plan.NewJoin(plan.Inner, j1, sold,
				[]expr.Expr{col(j1.Schema(), "ps_partkey"), col(j1.Schema(), "ps_suppkey")},
				[]expr.Expr{col(sold.Schema(), "sq_partkey"), col(sold.Schema(), "sq_suppkey")},
				[]string{"ps_suppkey", "ps_availqty"})
			js := j2.Schema()
			f := plan.NewFilter(j2, expr.Gt(
				expr.ToFloat(col(js, "ps_availqty")),
				expr.Mul(expr.Float(0.5), expr.ToFloat(col(js, "sq_qty")))))
			// Suppliers of qualifying partsupps, in CANADA.
			n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
			n.Where(expr.Eq(col(n.Schema(), "n_name"), expr.Str("CANADA")))
			s := plan.NewScan(cat.Table("supplier"),
				"s_suppkey", "s_name", "s_address", "s_nationkey")
			sj := plan.NewJoin(plan.Semi, n, s,
				[]expr.Expr{col(n.Schema(), "n_nationkey")},
				[]expr.Expr{col(s.Schema(), "s_nationkey")}, nil)
			out := plan.NewJoin(plan.Semi, f, sj,
				[]expr.Expr{col(js, "ps_suppkey")},
				[]expr.Expr{col(sj.Schema(), "s_suppkey")}, nil)
			outs := out.Schema()
			pr := plan.NewProject(out,
				[]expr.Expr{col(outs, "s_name"), col(outs, "s_address")},
				[]string{"s_name", "s_address"})
			return plan.NewOrderBy(pr, []plan.SortKey{asc(col(pr.Schema(), "s_name"))}, -1)
		}},
	}}
}

// Q21: suppliers who kept orders waiting. EXISTS/NOT EXISTS become
// build-side semi/anti joins with inequality residuals: the late lines of
// the nation's suppliers are few, so they are hashed, and the orders and
// the other two lineitem scans probe them.
func Q21(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q21", func() plan.Node {
		n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
		n.Where(expr.Eq(col(n.Schema(), "n_name"), expr.Str("SAUDI ARABIA")))
		s := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_name", "s_nationkey")
		jsup := plan.NewJoin(plan.Semi, n, s,
			[]expr.Expr{col(n.Schema(), "n_nationkey")},
			[]expr.Expr{col(s.Schema(), "s_nationkey")}, nil)
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_orderstatus")
		o.Where(expr.Eq(col(o.Schema(), "o_orderstatus"), expr.Ch('F')))
		l2 := plan.NewScan(cat.Table("lineitem"), "l_orderkey", "l_suppkey")
		l3 := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate")
		l3.Where(expr.Gt(col(l3.Schema(), "l_receiptdate"), col(l3.Schema(), "l_commitdate")))

		l1 := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate")
		l1.Where(expr.Gt(col(l1.Schema(), "l_receiptdate"), col(l1.Schema(), "l_commitdate")))
		// l1 ⨝ supplier (payload s_name).
		j1 := plan.NewJoin(plan.Inner, jsup, l1,
			[]expr.Expr{col(jsup.Schema(), "s_suppkey")},
			[]expr.Expr{col(l1.Schema(), "l_suppkey")},
			[]string{"s_name"})
		// Order must be F.
		j2 := plan.NewJoin(plan.RightSemi, j1, o,
			[]expr.Expr{col(j1.Schema(), "l_orderkey")},
			[]expr.Expr{col(o.Schema(), "o_orderkey")}, nil)
		// EXISTS another supplier's line in the same order. The residual is over
		// [probe (l2) ++ build (j2)].
		j3 := plan.NewJoin(plan.RightSemi, j2, l2,
			[]expr.Expr{col(j2.Schema(), "l_orderkey")},
			[]expr.Expr{col(l2.Schema(), "l_orderkey")}, nil)
		np3 := len(l2.Schema())
		j3.WithResidual(expr.Ne(col(l2.Schema(), "l_suppkey"),
			expr.Col(plan.ColIdx(j2.Schema(), "l_suppkey")+np3, expr.TInt)))
		// NOT EXISTS another supplier's LATE line in the same order.
		j4 := plan.NewJoin(plan.RightAnti, j3, l3,
			[]expr.Expr{col(j3.Schema(), "l_orderkey")},
			[]expr.Expr{col(l3.Schema(), "l_orderkey")}, nil)
		np4 := len(l3.Schema())
		j4.WithResidual(expr.Ne(col(l3.Schema(), "l_suppkey"),
			expr.Col(plan.ColIdx(j3.Schema(), "l_suppkey")+np4, expr.TInt)))
		js := j4.Schema()
		g := plan.NewGroupBy(j4,
			[]expr.Expr{col(js, "s_name")}, []string{"s_name"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "numwait"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			desc(col(gs, "numwait")), asc(col(gs, "s_name"))}, 100)
	})
}

// Q22: global sales opportunity. The average-balance subquery is stage 1.
func Q22(cat *storage.Catalog) plan.Query {
	codes := []expr.Expr{
		expr.Str("13"), expr.Str("31"), expr.Str("23"),
		expr.Str("29"), expr.Str("30"), expr.Str("18"), expr.Str("17"),
	}
	cntry := func(schema []plan.ColDef) expr.Expr {
		return expr.Substr(col(schema, "c_phone"), 1, 2)
	}
	return plan.Query{Name: "Q22", Stages: []plan.Stage{
		{Name: "avgbal", Build: func(map[string]*storage.Table) plan.Node {
			c := plan.NewScan(cat.Table("customer"), "c_phone", "c_acctbal")
			cs := c.Schema()
			c.Where(expr.And(
				expr.Gt(col(cs, "c_acctbal"), expr.Dec(0, 2)),
				expr.In(cntry(cs), codes...)))
			return plan.NewGroupBy(c, nil, nil, []plan.AggExpr{
				{Func: plan.Avg, Arg: col(cs, "c_acctbal"), Name: "a"}})
		}},
		{Name: "result", Build: func(prior map[string]*storage.Table) plan.Node {
			avg := prior["avgbal"].MustCol("a").Float64At(0)
			c := plan.NewScan(cat.Table("customer"), "c_custkey", "c_phone", "c_acctbal")
			cs := c.Schema()
			c.Where(expr.And(
				expr.In(cntry(cs), codes...),
				expr.Gt(expr.ToFloat(col(cs, "c_acctbal")), expr.Float(avg))))
			o := plan.NewScan(cat.Table("orders"), "o_custkey")
			j := plan.NewJoin(plan.RightAnti, c, o,
				[]expr.Expr{col(cs, "c_custkey")},
				[]expr.Expr{col(o.Schema(), "o_custkey")}, nil)
			js := j.Schema()
			g := plan.NewGroupBy(j,
				[]expr.Expr{cntry(js)}, []string{"cntrycode"},
				[]plan.AggExpr{
					{Func: plan.CountStar, Name: "numcust"},
					{Func: plan.Sum, Arg: col(js, "c_acctbal"), Name: "totacctbal"},
				})
			return plan.NewOrderBy(g, []plan.SortKey{asc(col(g.Schema(), "cntrycode"))}, -1)
		}},
	}}
}
