package tpch

import (
	"fmt"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// Queries returns the physical plans of all 22 TPC-H queries against the
// catalog. Plans are hand-written in the plan DSL the way HyPer's
// optimizer would produce them: filters pushed into scans, the smaller
// side of each join building the hash table, correlated subqueries
// decorrelated into aggregation stages (Q2, Q11, Q15, Q17, Q20, Q22).
// Where the smaller side is the one a semi, anti or count join returns
// (Q4, Q13, Q21, Q22), the plan uses the build-side kinds RightSemi,
// RightAnti and RightCount. TestTPCHBuildsSmallerInput holds every plan
// to the rule.
func Queries(cat *storage.Catalog) []plan.Query {
	out := make([]plan.Query, len(builders))
	for i, b := range builders {
		out[i] = b(cat)
	}
	return out
}

// builders constructs the queries, in number order.
var builders = [...]func(*storage.Catalog) plan.Query{
	Q1, Q2, Q3, Q4, Q5, Q6, Q7, Q8, Q9, Q10, Q11,
	Q12, Q13, Q14, Q15, Q16, Q17, Q18, Q19, Q20, Q21, Q22,
}

// Query returns TPC-H query n (1-based), building that plan alone.
func Query(cat *storage.Catalog, n int) plan.Query {
	if n < 1 || n > len(builders) {
		panic(fmt.Sprintf("tpch: no query %d", n))
	}
	return builders[n-1](cat)
}

func date(s string) expr.Expr { return expr.Date(storage.MustParseDate(s)) }

func asc(e expr.Expr) plan.SortKey  { return plan.SortKey{E: e} }
func desc(e expr.Expr) plan.SortKey { return plan.SortKey{E: e, Desc: true} }

// col is shorthand for plan.C.
func col(schema []plan.ColDef, name string) expr.Expr { return plan.C(schema, name) }

// discPrice builds l_extendedprice * (1 - l_discount) at scale 4.
func discPrice(schema []plan.ColDef) expr.Expr {
	return expr.Mul(col(schema, "l_extendedprice"),
		expr.Sub(expr.Dec(100, 2), col(schema, "l_discount")))
}

// Q1: pricing summary report — the paper's running example (Fig. 1/2,
// Table I/II). One lineitem scan into an 8-aggregate group-by.
func Q1(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q1", func() plan.Node {
		s := plan.NewScan(cat.Table("lineitem"),
			"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
			"l_discount", "l_tax", "l_shipdate")
		sch := s.Schema()
		s.Where(expr.Le(col(sch, "l_shipdate"), date("1998-09-02")))
		charge := expr.Mul(discPrice(sch), expr.Add(expr.Dec(100, 2), col(sch, "l_tax")))
		g := plan.NewGroupBy(s,
			[]expr.Expr{col(sch, "l_returnflag"), col(sch, "l_linestatus")},
			[]string{"l_returnflag", "l_linestatus"},
			[]plan.AggExpr{
				{Func: plan.Sum, Arg: col(sch, "l_quantity"), Name: "sum_qty"},
				{Func: plan.Sum, Arg: col(sch, "l_extendedprice"), Name: "sum_base_price"},
				{Func: plan.Sum, Arg: discPrice(sch), Name: "sum_disc_price"},
				{Func: plan.Sum, Arg: charge, Name: "sum_charge"},
				{Func: plan.Avg, Arg: col(sch, "l_quantity"), Name: "avg_qty"},
				{Func: plan.Avg, Arg: col(sch, "l_extendedprice"), Name: "avg_price"},
				{Func: plan.Avg, Arg: col(sch, "l_discount"), Name: "avg_disc"},
				{Func: plan.CountStar, Name: "count_order"},
			})
		gs := g.Schema()
		return plan.NewOrderBy(g,
			[]plan.SortKey{asc(col(gs, "l_returnflag")), asc(col(gs, "l_linestatus"))}, -1)
	})
}

// Q2: minimum-cost supplier. The correlated min subquery becomes a first
// stage computing min(ps_supplycost) per part over EUROPE suppliers.
func Q2(cat *storage.Catalog) plan.Query {
	europeSuppliers := func() plan.Node {
		r := plan.NewScan(cat.Table("region"), "r_regionkey", "r_name")
		r.Where(expr.Eq(col(r.Schema(), "r_name"), expr.Str("EUROPE")))
		n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name", "n_regionkey")
		jn := plan.NewJoin(plan.Inner, r, n,
			[]expr.Expr{col(r.Schema(), "r_regionkey")},
			[]expr.Expr{col(n.Schema(), "n_regionkey")}, nil)
		s := plan.NewScan(cat.Table("supplier"),
			"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone",
			"s_acctbal", "s_comment")
		return plan.NewJoin(plan.Inner, jn, s,
			[]expr.Expr{col(jn.Schema(), "n_nationkey")},
			[]expr.Expr{col(s.Schema(), "s_nationkey")},
			[]string{"n_name"})
	}
	return plan.Query{Name: "Q2", Stages: []plan.Stage{
		{Name: "mincost", Build: func(map[string]*storage.Table) plan.Node {
			sup := europeSuppliers()
			ps := plan.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_supplycost")
			j := plan.NewJoin(plan.Semi, sup, ps,
				[]expr.Expr{col(sup.Schema(), "s_suppkey")},
				[]expr.Expr{col(ps.Schema(), "ps_suppkey")}, nil)
			js := j.Schema()
			return plan.NewGroupBy(j,
				[]expr.Expr{col(js, "ps_partkey")}, []string{"mc_partkey"},
				[]plan.AggExpr{{Func: plan.Min, Arg: col(js, "ps_supplycost"), Name: "mc_cost"}})
		}},
		{Name: "result", Build: func(prior map[string]*storage.Table) plan.Node {
			p := plan.NewScan(cat.Table("part"), "p_partkey", "p_mfgr", "p_size", "p_type")
			psch := p.Schema()
			p.Where(expr.And(
				expr.Eq(col(psch, "p_size"), expr.Int(15)),
				expr.Like(col(psch, "p_type"), "%BRASS")))
			mc := plan.NewScan(prior["mincost"], "mc_partkey", "mc_cost")
			sup := europeSuppliers()
			ps := plan.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_supplycost")
			j1 := plan.NewJoin(plan.Inner, p, ps,
				[]expr.Expr{col(psch, "p_partkey")},
				[]expr.Expr{col(ps.Schema(), "ps_partkey")},
				[]string{"p_mfgr"})
			j2 := plan.NewJoin(plan.Inner, j1, mc,
				[]expr.Expr{col(j1.Schema(), "ps_partkey")},
				[]expr.Expr{col(mc.Schema(), "mc_partkey")},
				[]string{"ps_partkey", "ps_suppkey", "p_mfgr"})
			comb2 := j2.CombinedSchema()
			j2.WithResidual(expr.Eq(col(comb2, "ps_supplycost"), col(comb2, "mc_cost")))
			j3 := plan.NewJoin(plan.Inner, sup, j2,
				[]expr.Expr{col(sup.Schema(), "s_suppkey")},
				[]expr.Expr{col(j2.Schema(), "ps_suppkey")},
				[]string{"s_acctbal", "s_name", "n_name", "s_address", "s_phone", "s_comment"})
			js := j3.Schema()
			pr := plan.NewProject(j3,
				[]expr.Expr{col(js, "s_acctbal"), col(js, "s_name"), col(js, "n_name"),
					col(js, "ps_partkey"), col(js, "p_mfgr"), col(js, "s_address"),
					col(js, "s_phone"), col(js, "s_comment")},
				[]string{"s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr",
					"s_address", "s_phone", "s_comment"})
			prs := pr.Schema()
			return plan.NewOrderBy(pr, []plan.SortKey{
				desc(col(prs, "s_acctbal")), asc(col(prs, "n_name")),
				asc(col(prs, "s_name")), asc(col(prs, "p_partkey"))}, 100)
		}},
	}}
}

// Q3: shipping priority.
func Q3(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q3", func() plan.Node {
		c := plan.NewScan(cat.Table("customer"), "c_custkey", "c_mktsegment")
		c.Where(expr.Eq(col(c.Schema(), "c_mktsegment"), expr.Str("BUILDING")))
		o := plan.NewScan(cat.Table("orders"),
			"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
		o.Where(expr.Lt(col(o.Schema(), "o_orderdate"), date("1995-03-15")))
		jco := plan.NewJoin(plan.Semi, c, o,
			[]expr.Expr{col(c.Schema(), "c_custkey")},
			[]expr.Expr{col(o.Schema(), "o_custkey")}, nil)
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
		l.Where(expr.Gt(col(l.Schema(), "l_shipdate"), date("1995-03-15")))
		j := plan.NewJoin(plan.Inner, jco, l,
			[]expr.Expr{col(jco.Schema(), "o_orderkey")},
			[]expr.Expr{col(l.Schema(), "l_orderkey")},
			[]string{"o_orderdate", "o_shippriority"})
		js := j.Schema()
		g := plan.NewGroupBy(j,
			[]expr.Expr{col(js, "l_orderkey"), col(js, "o_orderdate"), col(js, "o_shippriority")},
			[]string{"l_orderkey", "o_orderdate", "o_shippriority"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: discPrice(js), Name: "revenue"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			desc(col(gs, "revenue")), asc(col(gs, "o_orderdate")),
			asc(col(gs, "l_orderkey"))}, 10)
	})
}

// Q4: order priority checking. EXISTS decorrelates to a semi join.
func Q4(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q4", func() plan.Node {
		l := plan.NewScan(cat.Table("lineitem"), "l_orderkey", "l_commitdate", "l_receiptdate")
		l.Where(expr.Lt(col(l.Schema(), "l_commitdate"), col(l.Schema(), "l_receiptdate")))
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_orderdate", "o_orderpriority")
		osch := o.Schema()
		o.Where(expr.And(
			expr.Ge(col(osch, "o_orderdate"), date("1993-07-01")),
			expr.Lt(col(osch, "o_orderdate"), date("1993-10-01"))))
		j := plan.NewJoin(plan.RightSemi, o, l,
			[]expr.Expr{col(osch, "o_orderkey")},
			[]expr.Expr{col(l.Schema(), "l_orderkey")}, nil)
		js := j.Schema()
		g := plan.NewGroupBy(j,
			[]expr.Expr{col(js, "o_orderpriority")}, []string{"o_orderpriority"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "order_count"}})
		return plan.NewOrderBy(g,
			[]plan.SortKey{asc(col(g.Schema(), "o_orderpriority"))}, -1)
	})
}

// Q5: local supplier volume.
func Q5(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q5", func() plan.Node {
		r := plan.NewScan(cat.Table("region"), "r_regionkey", "r_name")
		r.Where(expr.Eq(col(r.Schema(), "r_name"), expr.Str("ASIA")))
		n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name", "n_regionkey")
		jn := plan.NewJoin(plan.Inner, r, n,
			[]expr.Expr{col(r.Schema(), "r_regionkey")},
			[]expr.Expr{col(n.Schema(), "n_regionkey")}, nil)
		c := plan.NewScan(cat.Table("customer"), "c_custkey", "c_nationkey")
		jc := plan.NewJoin(plan.Inner, jn, c,
			[]expr.Expr{col(jn.Schema(), "n_nationkey")},
			[]expr.Expr{col(c.Schema(), "c_nationkey")},
			[]string{"n_name"})
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate")
		osch := o.Schema()
		o.Where(expr.And(
			expr.Ge(col(osch, "o_orderdate"), date("1994-01-01")),
			expr.Lt(col(osch, "o_orderdate"), date("1995-01-01"))))
		jo := plan.NewJoin(plan.Inner, jc, o,
			[]expr.Expr{col(jc.Schema(), "c_custkey")},
			[]expr.Expr{col(osch, "o_custkey")},
			[]string{"c_nationkey", "n_name"})
		s := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
		jl := plan.NewJoin(plan.Inner, jo, l,
			[]expr.Expr{col(jo.Schema(), "o_orderkey")},
			[]expr.Expr{col(l.Schema(), "l_orderkey")},
			[]string{"c_nationkey", "n_name"})
		// Supplier must be in the customer's nation.
		js := plan.NewJoin(plan.Inner, s, jl,
			[]expr.Expr{col(s.Schema(), "s_suppkey")},
			[]expr.Expr{col(jl.Schema(), "l_suppkey")}, nil)
		comb := js.CombinedSchema()
		js.WithResidual(expr.Eq(col(comb, "s_nationkey"), col(comb, "c_nationkey")))
		jss := js.Schema()
		g := plan.NewGroupBy(js,
			[]expr.Expr{col(jss, "n_name")}, []string{"n_name"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: discPrice(jss), Name: "revenue"}})
		return plan.NewOrderBy(g, []plan.SortKey{desc(col(g.Schema(), "revenue"))}, -1)
	})
}

// Q6: revenue-change forecast — a pure scan/filter/scalar-aggregate query.
func Q6(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q6", func() plan.Node {
		l := plan.NewScan(cat.Table("lineitem"),
			"l_extendedprice", "l_discount", "l_shipdate", "l_quantity")
		sch := l.Schema()
		l.Where(expr.And(
			expr.Ge(col(sch, "l_shipdate"), date("1994-01-01")),
			expr.Lt(col(sch, "l_shipdate"), date("1995-01-01")),
			expr.Between(col(sch, "l_discount"), expr.Dec(5, 2), expr.Dec(7, 2)),
			expr.Lt(col(sch, "l_quantity"), expr.Dec(2400, 2))))
		return plan.NewGroupBy(l, nil, nil, []plan.AggExpr{{
			Func: plan.Sum,
			Arg:  expr.Mul(col(sch, "l_extendedprice"), col(sch, "l_discount")),
			Name: "revenue"}})
	})
}

// Q7: volume shipping between FRANCE and GERMANY.
func Q7(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q7", func() plan.Node {
		franceGermany := func(alias string) *plan.Scan {
			n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
			n.Where(expr.Or(
				expr.Eq(col(n.Schema(), "n_name"), expr.Str("FRANCE")),
				expr.Eq(col(n.Schema(), "n_name"), expr.Str("GERMANY"))))
			return n
		}
		n1 := franceGermany("n1")
		s := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
		jsup := plan.NewJoin(plan.Inner, n1, s,
			[]expr.Expr{col(n1.Schema(), "n_nationkey")},
			[]expr.Expr{col(s.Schema(), "s_nationkey")},
			[]string{"n_name"})
		n2 := franceGermany("n2")
		c := plan.NewScan(cat.Table("customer"), "c_custkey", "c_nationkey")
		jcust := plan.NewJoin(plan.Inner, n2, c,
			[]expr.Expr{col(n2.Schema(), "n_nationkey")},
			[]expr.Expr{col(c.Schema(), "c_nationkey")},
			[]string{"n_name"})
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey")
		jord := plan.NewJoin(plan.Inner, jcust, o,
			[]expr.Expr{col(jcust.Schema(), "c_custkey")},
			[]expr.Expr{col(o.Schema(), "o_custkey")},
			[]string{"n_name"})
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
		l.Where(expr.Between(col(l.Schema(), "l_shipdate"),
			date("1995-01-01"), date("1996-12-31")))
		// lineitem ⨝ supplier-side nation.
		j1 := plan.NewJoin(plan.Inner, jsup, l,
			[]expr.Expr{col(jsup.Schema(), "s_suppkey")},
			[]expr.Expr{col(l.Schema(), "l_suppkey")},
			[]string{"n_name"})
		j1r := plan.NewProject(j1, renameLast(j1.Schema(), "supp_nation"), renameNames(j1.Schema(), "supp_nation"))
		// ⨝ customer-side nation via orders.
		j2 := plan.NewJoin(plan.Inner, jord, j1r,
			[]expr.Expr{col(jord.Schema(), "o_orderkey")},
			[]expr.Expr{col(j1r.Schema(), "l_orderkey")},
			[]string{"n_name"})
		j2r := plan.NewProject(j2, renameLast(j2.Schema(), "cust_nation"), renameNames(j2.Schema(), "cust_nation"))
		j2s := j2r.Schema()
		f := plan.NewFilter(j2r, expr.Or(
			expr.And(
				expr.Eq(col(j2s, "supp_nation"), expr.Str("FRANCE")),
				expr.Eq(col(j2s, "cust_nation"), expr.Str("GERMANY"))),
			expr.And(
				expr.Eq(col(j2s, "supp_nation"), expr.Str("GERMANY")),
				expr.Eq(col(j2s, "cust_nation"), expr.Str("FRANCE")))))
		g := plan.NewGroupBy(f,
			[]expr.Expr{col(j2s, "supp_nation"), col(j2s, "cust_nation"),
				expr.Year(col(j2s, "l_shipdate"))},
			[]string{"supp_nation", "cust_nation", "l_year"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: discPrice(j2s), Name: "revenue"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			asc(col(gs, "supp_nation")), asc(col(gs, "cust_nation")),
			asc(col(gs, "l_year"))}, -1)
	})
}

// renameLast / renameNames rebuild a projection that renames the last
// column of a schema (used to disambiguate the two n_name columns in Q7).
func renameLast(schema []plan.ColDef, name string) []expr.Expr {
	out := make([]expr.Expr, len(schema))
	for i := range schema {
		out[i] = expr.Col(i, schema[i].T)
	}
	return out
}

func renameNames(schema []plan.ColDef, name string) []string {
	out := make([]string, len(schema))
	for i, c := range schema {
		out[i] = c.Name
	}
	out[len(out)-1] = name
	return out
}

// Q8: national market share.
func Q8(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q8", func() plan.Node {
		p := plan.NewScan(cat.Table("part"), "p_partkey", "p_type")
		p.Where(expr.Eq(col(p.Schema(), "p_type"), expr.Str("ECONOMY ANODIZED STEEL")))
		// Supplier with nation name (for the BRAZIL case split).
		n2 := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
		s := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
		jsup := plan.NewJoin(plan.Inner, n2, s,
			[]expr.Expr{col(n2.Schema(), "n_nationkey")},
			[]expr.Expr{col(s.Schema(), "s_nationkey")},
			[]string{"n_name"})
		// Orders restricted to AMERICA customers, 1995-1996.
		r := plan.NewScan(cat.Table("region"), "r_regionkey", "r_name")
		r.Where(expr.Eq(col(r.Schema(), "r_name"), expr.Str("AMERICA")))
		n1 := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_regionkey")
		jn1 := plan.NewJoin(plan.Inner, r, n1,
			[]expr.Expr{col(r.Schema(), "r_regionkey")},
			[]expr.Expr{col(n1.Schema(), "n_regionkey")}, nil)
		c := plan.NewScan(cat.Table("customer"), "c_custkey", "c_nationkey")
		jc := plan.NewJoin(plan.Semi, jn1, c,
			[]expr.Expr{col(jn1.Schema(), "n_nationkey")},
			[]expr.Expr{col(c.Schema(), "c_nationkey")}, nil)
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate")
		o.Where(expr.Between(col(o.Schema(), "o_orderdate"),
			date("1995-01-01"), date("1996-12-31")))
		jo := plan.NewJoin(plan.Semi, jc, o,
			[]expr.Expr{col(jc.Schema(), "c_custkey")},
			[]expr.Expr{col(o.Schema(), "o_custkey")}, nil)
		// Main pipeline over lineitem.
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")
		j1 := plan.NewJoin(plan.Semi, p, l,
			[]expr.Expr{col(p.Schema(), "p_partkey")},
			[]expr.Expr{col(l.Schema(), "l_partkey")}, nil)
		j2 := plan.NewJoin(plan.Inner, jsup, j1,
			[]expr.Expr{col(jsup.Schema(), "s_suppkey")},
			[]expr.Expr{col(j1.Schema(), "l_suppkey")},
			[]string{"n_name"})
		j3 := plan.NewJoin(plan.Inner, j2, jo,
			[]expr.Expr{col(j2.Schema(), "l_orderkey")},
			[]expr.Expr{col(jo.Schema(), "o_orderkey")},
			[]string{"l_extendedprice", "l_discount", "n_name"})
		js := j3.Schema()
		vol := discPrice(js)
		brazilVol := expr.Case([]expr.When{{
			Cond: expr.Eq(col(js, "n_name"), expr.Str("BRAZIL")),
			Then: vol,
		}}, expr.Dec(0, 4))
		g := plan.NewGroupBy(j3,
			[]expr.Expr{expr.Year(col(js, "o_orderdate"))}, []string{"o_year"},
			[]plan.AggExpr{
				{Func: plan.Sum, Arg: brazilVol, Name: "brazil_vol"},
				{Func: plan.Sum, Arg: vol, Name: "total_vol"},
			})
		gs := g.Schema()
		pr := plan.NewProject(g,
			[]expr.Expr{col(gs, "o_year"),
				expr.Div(col(gs, "brazil_vol"), col(gs, "total_vol"))},
			[]string{"o_year", "mkt_share"})
		return plan.NewOrderBy(pr, []plan.SortKey{asc(col(pr.Schema(), "o_year"))}, -1)
	})
}

// Q9: product type profit measure.
func Q9(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q9", func() plan.Node {
		p := plan.NewScan(cat.Table("part"), "p_partkey", "p_name")
		p.Where(expr.Like(col(p.Schema(), "p_name"), "%green%"))
		n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
		s := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
		jsup := plan.NewJoin(plan.Inner, n, s,
			[]expr.Expr{col(n.Schema(), "n_nationkey")},
			[]expr.Expr{col(s.Schema(), "s_nationkey")},
			[]string{"n_name"})
		ps := plan.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_supplycost")
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_orderdate")
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
			"l_extendedprice", "l_discount")
		j1 := plan.NewJoin(plan.Semi, p, l,
			[]expr.Expr{col(p.Schema(), "p_partkey")},
			[]expr.Expr{col(l.Schema(), "l_partkey")}, nil)
		j2 := plan.NewJoin(plan.Inner, jsup, j1,
			[]expr.Expr{col(jsup.Schema(), "s_suppkey")},
			[]expr.Expr{col(j1.Schema(), "l_suppkey")},
			[]string{"n_name"})
		j3 := plan.NewJoin(plan.Inner, j2, ps,
			[]expr.Expr{col(j2.Schema(), "l_partkey"), col(j2.Schema(), "l_suppkey")},
			[]expr.Expr{col(ps.Schema(), "ps_partkey"), col(ps.Schema(), "ps_suppkey")},
			[]string{"l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "n_name"})
		j4 := plan.NewJoin(plan.Inner, j3, o,
			[]expr.Expr{col(j3.Schema(), "l_orderkey")},
			[]expr.Expr{col(o.Schema(), "o_orderkey")},
			[]string{"ps_supplycost", "l_quantity", "l_extendedprice", "l_discount", "n_name"})
		js := j4.Schema()
		// amount = extprice*(1-disc) - supplycost*qty, both at scale 4.
		amount := expr.Sub(discPrice(js),
			expr.Mul(col(js, "ps_supplycost"), col(js, "l_quantity")))
		g := plan.NewGroupBy(j4,
			[]expr.Expr{col(js, "n_name"), expr.Year(col(js, "o_orderdate"))},
			[]string{"nation", "o_year"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: amount, Name: "sum_profit"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			asc(col(gs, "nation")), desc(col(gs, "o_year"))}, -1)
	})
}

// Q10: returned item reporting.
func Q10(cat *storage.Catalog) plan.Query {
	return plan.SingleStage("Q10", func() plan.Node {
		n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
		c := plan.NewScan(cat.Table("customer"),
			"c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey",
			"c_address", "c_comment")
		jc := plan.NewJoin(plan.Inner, n, c,
			[]expr.Expr{col(n.Schema(), "n_nationkey")},
			[]expr.Expr{col(c.Schema(), "c_nationkey")},
			[]string{"n_name"})
		o := plan.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate")
		o.Where(expr.And(
			expr.Ge(col(o.Schema(), "o_orderdate"), date("1993-10-01")),
			expr.Lt(col(o.Schema(), "o_orderdate"), date("1994-01-01"))))
		jo := plan.NewJoin(plan.Inner, o, jc,
			[]expr.Expr{col(o.Schema(), "o_custkey")},
			[]expr.Expr{col(jc.Schema(), "c_custkey")},
			[]string{"o_orderkey", "o_custkey"})
		l := plan.NewScan(cat.Table("lineitem"),
			"l_orderkey", "l_returnflag", "l_extendedprice", "l_discount")
		l.Where(expr.Eq(col(l.Schema(), "l_returnflag"), expr.Ch('R')))
		j := plan.NewJoin(plan.Inner, jo, l,
			[]expr.Expr{col(jo.Schema(), "o_orderkey")},
			[]expr.Expr{col(l.Schema(), "l_orderkey")},
			[]string{"o_custkey", "c_name", "c_acctbal", "c_phone", "n_name",
				"c_address", "c_comment"})
		js := j.Schema()
		g := plan.NewGroupBy(j,
			[]expr.Expr{col(js, "o_custkey"), col(js, "c_name"), col(js, "c_acctbal"),
				col(js, "c_phone"), col(js, "n_name"), col(js, "c_address"),
				col(js, "c_comment")},
			[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name",
				"c_address", "c_comment"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: discPrice(js), Name: "revenue"}})
		gs := g.Schema()
		return plan.NewOrderBy(g, []plan.SortKey{
			desc(col(gs, "revenue")), asc(col(gs, "c_custkey"))}, 20)
	})
}

// Q11: important stock identification — the paper's Fig. 14 query. The
// HAVING threshold (a scalar subquery) becomes a first stage.
func Q11(cat *storage.Catalog) plan.Query {
	germanPS := func() plan.Node {
		n := plan.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
		n.Where(expr.Eq(col(n.Schema(), "n_name"), expr.Str("GERMANY")))
		s := plan.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
		js := plan.NewJoin(plan.Semi, n, s,
			[]expr.Expr{col(n.Schema(), "n_nationkey")},
			[]expr.Expr{col(s.Schema(), "s_nationkey")}, nil)
		ps := plan.NewScan(cat.Table("partsupp"),
			"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost")
		return plan.NewJoin(plan.Semi, js, ps,
			[]expr.Expr{col(js.Schema(), "s_suppkey")},
			[]expr.Expr{col(ps.Schema(), "ps_suppkey")}, nil)
	}
	value := func(schema []plan.ColDef) expr.Expr {
		return expr.Mul(col(schema, "ps_supplycost"),
			expr.Rescale(col(schema, "ps_availqty"), 2))
	}
	return plan.Query{Name: "Q11", Stages: []plan.Stage{
		{Name: "total", Build: func(map[string]*storage.Table) plan.Node {
			j := germanPS()
			return plan.NewGroupBy(j, nil, nil, []plan.AggExpr{
				{Func: plan.Sum, Arg: value(j.Schema()), Name: "total"}})
		}},
		{Name: "result", Build: func(prior map[string]*storage.Table) plan.Node {
			total := prior["total"].MustCol("total").Int64At(0)
			threshold := total / 10000 // total * 0.0001
			j := germanPS()
			g := plan.NewGroupBy(j,
				[]expr.Expr{col(j.Schema(), "ps_partkey")}, []string{"ps_partkey"},
				[]plan.AggExpr{{Func: plan.Sum, Arg: value(j.Schema()), Name: "value"}})
			f := plan.NewFilter(g,
				expr.Gt(col(g.Schema(), "value"), expr.Dec(threshold, 4)))
			return plan.NewOrderBy(f, []plan.SortKey{desc(col(g.Schema(), "value"))}, -1)
		}},
	}}
}
