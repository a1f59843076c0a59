package exec

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/sql"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

// TestOversizeLiteralsAndParams: the literal and parameter segments are
// sized to their contents, with no cap, so a statement with over 2 MiB of
// string literals and a 100 KiB string binding runs in every engine and
// matches Volcano. The column has no dictionary, so the IN list stays
// string literals.
func TestOversizeLiteralsAndParams(t *testing.T) {
	big := strings.Repeat("x", 1<<20) + "big"
	mid := strings.Repeat("p", 100<<10)
	s := storage.NewColumn("h_s", storage.String)
	id := storage.NewColumn("h_id", storage.Int64)
	matches := int64(0)
	for i := 0; i < 3000; i++ {
		v := fmt.Sprintf("row%d", i%7)
		switch i % 500 {
		case 3:
			v = big
		case 9:
			v = mid
		}
		if v == big || v == mid || v == "row3" {
			matches++
		}
		s.AppendString(v)
		id.AppendInt64(int64(i))
	}
	tab := storage.NewTable("huge", s, id)
	build := func(param expr.Expr) plan.Node {
		sc := plan.NewScan(tab, "h_s", "h_id")
		sch := sc.Schema()
		sc.Where(expr.Or(
			expr.In(plan.C(sch, "h_s"), expr.Str(big), expr.Str(big+"2"), expr.Str("row3")),
			expr.Eq(plan.C(sch, "h_s"), param)))
		return plan.NewGroupBy(sc, nil, nil, []plan.AggExpr{
			{Func: plan.CountStar, Name: "n"},
			{Func: plan.Sum, Arg: plan.C(sch, "h_id"), Name: "ids"}})
	}
	ref, err := volcano.Run(build(expr.Str(mid)))
	if err != nil {
		t.Fatal(err)
	}
	want := canon(ref, []expr.Type{expr.TInt, expr.TInt})
	if ref[0][0].I != matches {
		t.Fatalf("volcano counted %d rows: the table is not what the test means", ref[0][0].I)
	}
	native := Native()
	for _, mode := range []Mode{ModeBytecode, ModeOptimized, ModeNative, ModeVector, ModeAdaptive} {
		e := New(Options{Workers: 2, Mode: mode, Cost: native, MorselSize: 256})
		lit, err := e.RunPlan(build(expr.Str(mid)), "literal")
		if err != nil {
			t.Fatalf("%v literal: %v", mode, err)
		}
		bound, err := e.RunPlanOpts(context.Background(), build(expr.ParamRef(0, expr.TString)), "param",
			RunOpts{Params: []*expr.Const{expr.Str(mid).(*expr.Const)}})
		if err != nil {
			t.Fatalf("%v param: %v", mode, err)
		}
		for name, res := range map[string]*Result{"literal": lit, "param": bound} {
			if got := canon(res.Rows, res.Types); !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: %v, volcano %v", mode, name, got, want)
			}
		}
	}
}

// TestPointLookupAllocBound bounds what a cold point lookup allocates:
// with segments and arena chunks sized to what the query touches, one
// execution of the ad-hoc benchmark's point template at SF 0.01 — plan,
// codegen, translate, run, rows — stays under 128 KiB, where fixed-size
// segments and chunks alone would take over a megabyte.
func TestPointLookupAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("generates SF 0.01")
	}
	cat := tpch.Gen(0.01)
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), CacheBytes: -1})
	run := func(key int) {
		node, err := sql.Plan(fmt.Sprintf(`SELECT c_name, c_address, c_phone, c_acctbal
			FROM customer WHERE c_custkey = %d`, key), cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPlan(node, "point")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("key %d: %d rows", key, len(res.Rows))
		}
	}
	run(1) // first-use allocations (extern tables, pools) are not per query
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run(2 + i*17)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	t.Logf("point lookup: %.1f KiB allocated per execution", perRun)
	if perRun >= 128 {
		t.Errorf("point lookup allocates %.1f KiB per execution, want < 128", perRun)
	}
}
