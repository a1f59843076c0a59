package sql

import (
	"strings"
	"sync"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

// sf01 is the scale the ad-hoc benchmark templates run at.
var sf01 = sync.OnceValue(func() *storage.Catalog { return tpch.Gen(0.01) })

// TestBuildSides names the join order the optimizer picks for the ad-hoc
// benchmark's multi-join templates at SF 0.01 (one binding each) and for
// the customer ⋈ orders prepared statements, probe root first: lineitem is
// never built, and customer is built rather than orders — under either
// FROM order.
func TestBuildSides(t *testing.T) {
	cat := sf01()
	cases := []struct {
		name, sql string
		args      []*expr.Const
		want      string
	}{
		{"q3", `SELECT l_orderkey, o_orderdate, o_shippriority,
			sum(l_extendedprice * (1 - l_discount)) AS revenue
			FROM customer, orders, lineitem
			WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
			  AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
			GROUP BY l_orderkey, o_orderdate, o_shippriority
			ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10`,
			nil, "lineitem,orders,customer"},
		{"q5", `SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
			FROM customer, orders, lineitem, supplier, nation, region
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
			  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'ASIA'
			  AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'
			GROUP BY n_name ORDER BY revenue DESC, n_name`,
			nil, "lineitem,orders,supplier,customer,nation,region"},
		{"q10", q10SQL, nil, "lineitem,orders,customer,nation"},
		{"stream join", `SELECT c_name, c_phone, o_orderkey, o_orderpriority, o_totalprice
			FROM customer, orders WHERE c_custkey = o_custkey AND o_orderdate >= $1 AND o_orderdate < $2`,
			[]*expr.Const{strConst("1994-01-01"), strConst("1996-03-11")}, "orders,customer"},
		{"stream join, FROM swapped", `SELECT c_name, c_phone, o_orderkey, o_orderpriority, o_totalprice
			FROM orders, customer WHERE c_custkey = o_custkey AND o_orderdate >= $1 AND o_orderdate < $2`,
			[]*expr.Const{strConst("1994-01-01"), strConst("1996-03-11")}, "orders,customer"},
		{"service", `SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS s
			FROM customer, orders WHERE c_custkey = o_custkey AND o_totalprice > $1
			GROUP BY c_mktsegment`,
			[]*expr.Const{expr.Dec(20000000, 2).(*expr.Const)}, "orders,customer"},
	}
	for _, tc := range cases {
		_, prep, _, err := PlanBind(tc.sql, cat, tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := strings.Join(prep.OrderNames(), ","); got != tc.want {
			t.Errorf("%s: order %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestIntervalEstimateQ10: q10's three-month o_orderdate window is one
// interval, so its orders estimate lands within 2× of the true count (as
// independent events the two bounds estimate 3 459 orders against 617).
func TestIntervalEstimateQ10(t *testing.T) {
	cat := sf01()
	_, prep, err := PlanOpt(q10SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Plan(`SELECT count(*) FROM orders
		WHERE o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := volcano.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(rows[0][0].I)
	est := prep.EstCard(1) // FROM customer, orders, ...
	if est > 2*truth || truth > 2*est {
		t.Errorf("orders estimate %.0f, true %.0f: not within 2×", est, truth)
	}
}

const q10SQL = `SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue,
	c_acctbal, n_name, c_address, c_phone, c_comment
	FROM customer, orders, lineitem, nation
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
	  AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01'
	  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
	GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
	ORDER BY revenue DESC, c_custkey LIMIT 20`

func strConst(s string) *expr.Const { return expr.Str(s).(*expr.Const) }
