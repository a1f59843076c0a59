package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/vm"
	"aqe/internal/volcano"
)

// mkOrders builds a small orders-like table.
func mkOrders(n int, rng *rand.Rand) *storage.Table {
	id := storage.NewColumn("o_id", storage.Int64)
	cust := storage.NewColumn("o_cust", storage.Int64)
	total := storage.NewColumn("o_total", storage.Decimal)
	date := storage.NewColumn("o_date", storage.Date)
	status := storage.NewColumn("o_status", storage.Char)
	comment := storage.NewColumn("o_comment", storage.String)
	words := []string{"quick brown fox", "special deposits", "furious packages",
		"final requests", "express lanes", "regular deposits haggle"}
	for i := 0; i < n; i++ {
		id.AppendInt64(int64(i))
		cust.AppendInt64(int64(rng.Intn(n/4 + 1)))
		total.AppendInt64(int64(rng.Intn(100000)))
		date.AppendInt64(int64(9000 + rng.Intn(2000)))
		status.AppendChar(byte("OFP"[rng.Intn(3)]))
		comment.AppendString(words[rng.Intn(len(words))])
	}
	return storage.NewTable("orders", id, cust, total, date, status, comment)
}

// mkCust builds a small customers-like table.
func mkCust(n int, rng *rand.Rand) *storage.Table {
	id := storage.NewColumn("c_id", storage.Int64)
	seg := storage.NewColumn("c_seg", storage.String)
	bal := storage.NewColumn("c_bal", storage.Decimal)
	segs := []string{"BUILDING", "AUTOMOBILE", "MACHINERY"}
	for i := 0; i < n; i++ {
		id.AppendInt64(int64(i))
		seg.AppendString(segs[rng.Intn(len(segs))])
		bal.AppendInt64(int64(rng.Intn(20000) - 5000))
	}
	return storage.NewTable("cust", id, seg, bal)
}

// engines under test: every mode, multiple worker counts.
func testEngines() map[string]*Engine {
	native := Native()
	return map[string]*Engine{
		"bytecode-w1": New(Options{Workers: 1, Mode: ModeBytecode}),
		"bytecode-w3": New(Options{Workers: 3, Mode: ModeBytecode}),
		"native-w2":   New(Options{Workers: 2, Mode: ModeNative, Cost: native}),
		"opt-w2":      New(Options{Workers: 2, Mode: ModeOptimized, Cost: native}),
		"adaptive-w3": New(Options{Workers: 3, Mode: ModeAdaptive, Cost: native, MorselSize: 64}),
		"nofusion-w1": New(Options{Workers: 1, Mode: ModeBytecode,
			VM: vm.Options{NoFusion: true, Strategy: vm.Window, WindowSize: 3}}),
	}
}

// canon renders rows into sorted canonical strings for order-insensitive
// comparison; floats are rounded to absorb parallel summation order.
func canon(rows [][]expr.Datum, types []expr.Type) []string {
	return canonFloat(rows, types, "|%.6g")
}

// canonFloat is canon with the float format given.
func canonFloat(rows [][]expr.Datum, types []expr.Type, floatFmt string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for j, d := range row {
			if types[j].Kind == expr.KFloat {
				fmt.Fprintf(&sb, floatFmt, d.F)
			} else if types[j].Kind == expr.KString {
				fmt.Fprintf(&sb, "|%s", d.S)
			} else {
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

// checkPlan runs the plan on every engine and compares against volcano.
func checkPlan(t *testing.T, name string, build func() plan.Node) {
	t.Helper()
	checkPlanOn(t, name, build, testEngines())
}

// checkPlanOn runs the plan on the given engines and compares against
// volcano.
func checkPlanOn(t *testing.T, name string, build func() plan.Node, engines map[string]*Engine) {
	t.Helper()
	ref := build()
	want, err := volcano.Run(ref)
	if err != nil {
		t.Fatalf("%s: volcano: %v", name, err)
	}
	wantC := canon(want, typesOf(ref.Schema()))
	for ename, e := range engines {
		res, err := e.RunPlan(build(), name)
		if err != nil {
			t.Errorf("%s [%s]: %v", name, ename, err)
			continue
		}
		gotC := canon(res.Rows, res.Types)
		if len(gotC) != len(wantC) {
			t.Errorf("%s [%s]: %d rows, want %d", name, ename, len(gotC), len(wantC))
			continue
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Errorf("%s [%s]: row %d\n got %s\nwant %s", name, ename, i, gotC[i], wantC[i])
				break
			}
		}
	}
}

var rngSeed = rand.New(rand.NewSource(42))
var ordersT = mkOrders(5000, rngSeed)
var custT = mkCust(800, rngSeed)

func TestScanFilterProject(t *testing.T) {
	checkPlan(t, "scan-filter-project", func() plan.Node {
		s := plan.NewScan(ordersT, "o_id", "o_total", "o_date", "o_status")
		sch := s.Schema()
		s.Where(expr.And(
			expr.Gt(plan.C(sch, "o_total"), expr.Dec(50000, 2)),
			expr.Eq(plan.C(sch, "o_status"), expr.Ch('O')),
		))
		return plan.NewProject(s,
			[]expr.Expr{plan.C(sch, "o_id"),
				expr.Mul(plan.C(sch, "o_total"), expr.Int(2)),
				expr.Year(plan.C(sch, "o_date"))},
			[]string{"id", "dbl", "yr"})
	})
}

func TestScalarAgg(t *testing.T) {
	checkPlan(t, "scalar-agg", func() plan.Node {
		s := plan.NewScan(ordersT, "o_total", "o_date")
		sch := s.Schema()
		s.Where(expr.Lt(plan.C(sch, "o_date"), expr.Date(10000)))
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"},
			{Func: plan.CountStar, Name: "n"},
			{Func: plan.Min, Arg: plan.C(sch, "o_total"), Name: "mn"},
			{Func: plan.Max, Arg: plan.C(sch, "o_total"), Name: "mx"},
			{Func: plan.Avg, Arg: plan.C(sch, "o_total"), Name: "av"},
		})
	})
}

func TestGroupByKeys(t *testing.T) {
	checkPlan(t, "groupby-char-key", func() plan.Node {
		s := plan.NewScan(ordersT, "o_status", "o_total")
		sch := s.Schema()
		return plan.NewGroupBy(s,
			[]expr.Expr{plan.C(sch, "o_status")}, []string{"st"},
			[]plan.AggExpr{
				{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"},
				{Func: plan.Count, Arg: plan.C(sch, "o_total"), Name: "n"},
			})
	})
	checkPlan(t, "groupby-string-key", func() plan.Node {
		s := plan.NewScan(custT, "c_seg", "c_bal")
		sch := s.Schema()
		return plan.NewGroupBy(s,
			[]expr.Expr{plan.C(sch, "c_seg")}, []string{"seg"},
			[]plan.AggExpr{
				{Func: plan.Sum, Arg: plan.C(sch, "c_bal"), Name: "s"},
				{Func: plan.Max, Arg: plan.C(sch, "c_bal"), Name: "mx"},
			})
	})
}

func TestInnerJoin(t *testing.T) {
	checkPlan(t, "inner-join", func() plan.Node {
		c := plan.NewScan(custT, "c_id", "c_seg", "c_bal")
		csch := c.Schema()
		o := plan.NewScan(ordersT, "o_id", "o_cust", "o_total")
		osch := o.Schema()
		return plan.NewJoin(plan.Inner, c, o,
			[]expr.Expr{plan.C(csch, "c_id")},
			[]expr.Expr{plan.C(osch, "o_cust")},
			[]string{"c_seg", "c_bal"})
	})
}

func TestJoinResidual(t *testing.T) {
	checkPlan(t, "join-residual", func() plan.Node {
		c := plan.NewScan(custT, "c_id", "c_bal")
		o := plan.NewScan(ordersT, "o_id", "o_cust", "o_total")
		j := plan.NewJoin(plan.Inner, c, o,
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]expr.Expr{plan.C(o.Schema(), "o_cust")},
			[]string{"c_bal"})
		// Residual over [probe ++ build]: o_total > c_bal (scaled).
		comb := j.CombinedSchema()
		j.WithResidual(expr.Gt(plan.C(comb, "o_total"), plan.C(comb, "c_bal")))
		return j
	})
}

func TestSemiAntiJoin(t *testing.T) {
	mk := func(kind plan.JoinKind) func() plan.Node {
		return func() plan.Node {
			o := plan.NewScan(ordersT, "o_cust", "o_total")
			o.Where(expr.Gt(plan.C(o.Schema(), "o_total"), expr.Dec(80000, 2)))
			c := plan.NewScan(custT, "c_id", "c_seg")
			return plan.NewJoin(kind, o, c,
				[]expr.Expr{plan.C(o.Schema(), "o_cust")},
				[]expr.Expr{plan.C(c.Schema(), "c_id")}, nil)
		}
	}
	checkPlan(t, "semi-join", mk(plan.Semi))
	checkPlan(t, "anti-join", mk(plan.Anti))
}

func TestOuterCountJoin(t *testing.T) {
	checkPlan(t, "outer-count", func() plan.Node {
		o := plan.NewScan(ordersT, "o_cust", "o_comment")
		o.Where(expr.NotLike(plan.C(o.Schema(), "o_comment"), "%special%deposits%"))
		c := plan.NewScan(custT, "c_id")
		j := plan.NewJoin(plan.OuterCount, o, c,
			[]expr.Expr{plan.C(o.Schema(), "o_cust")},
			[]expr.Expr{plan.C(c.Schema(), "c_id")}, nil).Named("c_count")
		// Q13 shape: distribution of counts.
		jsch := j.Schema()
		return plan.NewGroupBy(j,
			[]expr.Expr{plan.C(jsch, "c_count")}, []string{"cnt"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "custs"}})
	})
}

func TestGroupByOverJoinAndHaving(t *testing.T) {
	checkPlan(t, "agg-over-join-having", func() plan.Node {
		c := plan.NewScan(custT, "c_id", "c_seg")
		o := plan.NewScan(ordersT, "o_cust", "o_total")
		j := plan.NewJoin(plan.Inner, c, o,
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]expr.Expr{plan.C(o.Schema(), "o_cust")},
			[]string{"c_seg"})
		jsch := j.Schema()
		g := plan.NewGroupBy(j,
			[]expr.Expr{plan.C(jsch, "c_seg")}, []string{"seg"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(jsch, "o_total"), Name: "rev"}})
		// HAVING rev > const.
		return plan.NewFilter(g, expr.Gt(plan.C(g.Schema(), "rev"), expr.Dec(100000, 2)))
	})
}

func TestAggAsBuildSide(t *testing.T) {
	// Q18 shape: join customers against big-spender aggregation.
	checkPlan(t, "agg-as-build", func() plan.Node {
		o := plan.NewScan(ordersT, "o_cust", "o_total")
		g := plan.NewGroupBy(o,
			[]expr.Expr{plan.C(o.Schema(), "o_cust")}, []string{"cust"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(o.Schema(), "o_total"), Name: "spent"}})
		gf := plan.NewFilter(g, expr.Gt(plan.C(g.Schema(), "spent"), expr.Dec(200000, 2)))
		c := plan.NewScan(custT, "c_id", "c_seg")
		return plan.NewJoin(plan.Inner, gf, c,
			[]expr.Expr{plan.C(gf.Schema(), "cust")},
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]string{"spent"})
	})
}

func TestOrderByLimit(t *testing.T) {
	// Ordered comparison: both engines sort, so compare positionally.
	build := func() plan.Node {
		s := plan.NewScan(ordersT, "o_id", "o_total")
		sch := s.Schema()
		return plan.NewOrderBy(s, []plan.SortKey{
			{E: plan.C(sch, "o_total"), Desc: true},
			{E: plan.C(sch, "o_id")},
		}, 25)
	}
	want, err := volcano.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Mode: ModeBytecode})
	res, err := e.RunPlan(build(), "orderby")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if res.Rows[i][j].I != want[i][j].I {
				t.Fatalf("row %d col %d: %d vs %d", i, j, res.Rows[i][j].I, want[i][j].I)
			}
		}
	}
}

func TestLikeAndInPushedToScan(t *testing.T) {
	checkPlan(t, "like-in", func() plan.Node {
		s := plan.NewScan(ordersT, "o_id", "o_comment", "o_status")
		sch := s.Schema()
		s.Where(expr.And(
			expr.Like(plan.C(sch, "o_comment"), "%deposits%"),
			expr.In(plan.C(sch, "o_status"), expr.Ch('O'), expr.Ch('F')),
		))
		return s
	})
}

func TestCaseExpression(t *testing.T) {
	checkPlan(t, "case-sum", func() plan.Node {
		s := plan.NewScan(ordersT, "o_status", "o_total")
		sch := s.Schema()
		arg := expr.Case([]expr.When{{
			Cond: expr.Eq(plan.C(sch, "o_status"), expr.Ch('O')),
			Then: plan.C(sch, "o_total"),
		}}, expr.Dec(0, 2))
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: arg, Name: "open_total"},
		})
	})
}

func TestOverflowPropagates(t *testing.T) {
	big := storage.NewColumn("v", storage.Int64)
	for i := 0; i < 10; i++ {
		big.AppendInt64(math.MaxInt64 / 3)
	}
	tbl := storage.NewTable("big", big)
	build := func() plan.Node {
		s := plan.NewScan(tbl, "v")
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(s.Schema(), "v"), Name: "s"},
		})
	}
	if _, err := volcano.Run(build()); err == nil {
		t.Fatal("volcano: expected overflow")
	}
	for _, mode := range []Mode{ModeBytecode, ModeNative, ModeOptimized} {
		e := New(Options{Workers: 2, Mode: mode, Cost: Native()})
		if _, err := e.RunPlan(build(), "overflow"); err == nil {
			t.Errorf("%v: expected overflow error", mode)
		} else if trap, ok := err.(*rt.Trap); !ok || trap.Code != rt.TrapOverflow {
			t.Errorf("%v: got %v", mode, err)
		}
	}
}

// TestDivZeroBehindFilter: a division by zero behind a filter traps in no
// engine when the filter removes the zero rows — the expression is
// evaluated on the tuples that pass, no others — and traps in every engine
// when it does not.
func TestDivZeroBehindFilter(t *testing.T) {
	a := storage.NewColumn("a", storage.Int64)
	b := storage.NewColumn("b", storage.Int64)
	for i := 0; i < 1000; i++ {
		a.AppendInt64(int64(i))
		b.AppendInt64(int64(i % 5)) // zeros at every i%5==0
	}
	tbl := storage.NewTable("dz", a, b)
	build := func(filtered bool) func() plan.Node {
		return func() plan.Node {
			s := plan.NewScan(tbl, "a", "b")
			sch := s.Schema()
			if filtered {
				s.Where(expr.Gt(plan.C(sch, "b"), expr.Int(0)))
			}
			return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{{Func: plan.Sum,
				Arg: expr.Div(plan.C(sch, "a"), plan.C(sch, "b")), Name: "q"}})
		}
	}
	checkPlan(t, "dz-filtered", build(true))
	for name, e := range testEngines() {
		var trap *rt.Trap
		if _, err := e.RunPlan(build(false)(), "dz-unfiltered"); !errors.As(err, &trap) || trap.Code != rt.TrapDivZero {
			t.Errorf("%s: unfiltered division by zero: %v, want the division-by-zero trap", name, err)
		}
	}
}

// TestJoinShapes runs each probe-side join kind against Volcano over a
// fact table whose keys miss the dimension at both ends: inner with and
// without a residual over the build payload, semi, anti, and outer-count
// with its count column summed.
func TestJoinShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dk := storage.NewColumn("b", storage.Int64)
	dv := storage.NewColumn("d", storage.Decimal)
	for i := 0; i < 300; i++ {
		dk.AppendInt64(int64(rng.Intn(50)))
		dv.AppendInt64(int64(rng.Intn(100000) - 20000))
	}
	dim := storage.NewTable("dim", dk, dv)
	fk := storage.NewColumn("fk", storage.Int64)
	fv := storage.NewColumn("fv", storage.Decimal)
	for i := 0; i < 5000; i++ {
		fk.AppendInt64(int64(rng.Intn(80) - 10))
		fv.AppendInt64(int64(rng.Intn(10000)))
	}
	fact := storage.NewTable("fact", fk, fv)
	for _, tc := range []struct {
		name     string
		kind     plan.JoinKind
		residual bool
	}{
		{"inner", plan.Inner, false},
		{"inner-residual", plan.Inner, true},
		{"semi", plan.Semi, false},
		{"anti", plan.Anti, false},
		{"outer-count", plan.OuterCount, false},
	} {
		checkPlan(t, "join-"+tc.name, func() plan.Node {
			d := plan.NewScan(dim, "b", "d")
			f := plan.NewScan(fact, "fk", "fv")
			var payload []string
			if tc.kind == plan.Inner {
				payload = []string{"d"}
			}
			j := plan.NewJoin(tc.kind, d, f,
				[]expr.Expr{plan.C(d.Schema(), "b")},
				[]expr.Expr{plan.C(f.Schema(), "fk")}, payload)
			if tc.residual {
				j.WithResidual(expr.Gt(plan.C(j.Schema(), "d"), expr.Dec(0, 2)))
			}
			jsch := j.Schema()
			aggs := []plan.AggExpr{{Func: plan.CountStar, Name: "n"},
				{Func: plan.Sum, Arg: plan.C(jsch, "fv"), Name: "sv"}}
			if tc.kind == plan.OuterCount {
				aggs = append(aggs, plan.AggExpr{Func: plan.Sum,
					Arg: plan.C(jsch, "match_count"), Name: "mc"})
			}
			return plan.NewGroupBy(j, nil, nil, aggs)
		})
	}
}

// TestParseMode: every mode's name parses back to the mode, and a name no
// mode prints — the removed "vector", a misspelling — is an error that
// lists the valid names.
func TestParseMode(t *testing.T) {
	for m := range modeNames {
		if got, err := ParseMode(Mode(m).String()); err != nil || got != Mode(m) {
			t.Errorf("ParseMode(%q) = %v, %v", Mode(m), got, err)
		}
	}
	for _, name := range []string{"vector", "natve", ""} {
		_, err := ParseMode(name)
		if err == nil {
			t.Errorf("ParseMode(%q) succeeded", name)
			continue
		}
		for _, valid := range modeNames {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseMode(%q): %q does not list %q", name, err, valid)
			}
		}
	}
}

func TestMultiStageQuery(t *testing.T) {
	// Stage 1: max total; stage 2: all orders achieving it.
	q := plan.Query{Name: "2stage", Stages: []plan.Stage{
		{Name: "mx", Build: func(map[string]*storage.Table) plan.Node {
			s := plan.NewScan(ordersT, "o_total")
			return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
				{Func: plan.Max, Arg: plan.C(s.Schema(), "o_total"), Name: "m"},
			})
		}},
		{Name: "hits", Build: func(prior map[string]*storage.Table) plan.Node {
			mx := prior["mx"].MustCol("m").Int64At(0)
			s := plan.NewScan(ordersT, "o_id", "o_total")
			s.Where(expr.Eq(plan.C(s.Schema(), "o_total"), expr.Dec(mx, 2)))
			return s
		}},
	}}
	e := New(Options{Workers: 2, Mode: ModeBytecode, Trace: true})
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The trace is the whole query's, on one axis: both stages' scans of
	// orders, and stage 2's after stage 1's aggregate was read out (the
	// "hash table scan" pipeline only stage 1 has).
	var scanned int64
	var aggRead, lastScan time.Duration
	for _, ev := range res.Trace.Events() {
		if ev.Kind != EvMorsel {
			continue
		}
		if ev.Label == "hash table scan" {
			aggRead = ev.End
		} else {
			scanned += ev.Tuples
			lastScan = ev.Start
		}
	}
	if want := 2 * int64(ordersT.Rows()); scanned != want {
		t.Errorf("trace holds scan morsels over %d tuples, want %d (both stages)", scanned, want)
	}
	if aggRead == 0 || lastScan < aggRead {
		t.Errorf("stage 2 not after stage 1 on the trace axis: stage 1 ends %v, last scan morsel starts %v", aggRead, lastScan)
	}
	// Every returned total equals the max.
	var mx int64
	for i := 0; i < ordersT.Rows(); i++ {
		if v := ordersT.MustCol("o_total").Int64At(i); v > mx {
			mx = v
		}
	}
	for _, row := range res.Rows {
		if row[1].I != mx {
			t.Errorf("row total %d, want %d", row[1].I, mx)
		}
	}
}

// TestMultiStageStatsCoverEveryStage: the Stats of a multi-stage query
// cover every stage. Q20 runs twice under ModeNative, whole and stage by
// stage: FinalLevels lists every stage's pipelines, the counts are the
// stages' sums, and Rows and Fingerprint are the final stage's.
func TestMultiStageStatsCoverEveryStage(t *testing.T) {
	cat := diffCat()
	q := tpch.Query(cat, 20)
	if len(q.Stages) < 2 {
		t.Fatalf("Q20 has %d stages; the test needs a multi-stage query", len(q.Stages))
	}
	e := New(Options{Workers: 2, Mode: ModeNative, Cost: Native()})
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	var pipelines int
	var compiles int
	var last Stats
	prior := map[string]*storage.Table{}
	for _, st := range q.Stages {
		r, err := e.RunPlanOpts(context.Background(), st.Build(prior), q.Name+"/"+st.Name, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pipelines += r.Stats.Pipelines
		compiles += r.Stats.Compilations
		last = r.Stats
		prior[st.Name] = r.ToTable(st.Name)
	}
	got := res.Stats
	if len(got.FinalLevels) != pipelines || got.Pipelines != pipelines {
		t.Errorf("FinalLevels has %d entries and Pipelines reads %d; the stages have %d pipelines",
			len(got.FinalLevels), got.Pipelines, pipelines)
	}
	if got.Compilations != compiles {
		t.Errorf("Compilations %d, the stages' sum is %d", got.Compilations, compiles)
	}
	if got.Rows != last.Rows || got.Fingerprint != last.Fingerprint {
		t.Errorf("Rows %d, Fingerprint %s; the final stage's are %d, %s",
			got.Rows, got.Fingerprint, last.Rows, last.Fingerprint)
	}
}

func TestAdaptiveCompiles(t *testing.T) {
	// With a zero-latency cost model and large data, adaptive execution
	// should decide to compile at least one pipeline.
	cost := Native()
	cost.nativeBase, cost.nativePerInstr = 0, 0
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: cost, MorselSize: 256})
	s := plan.NewScan(ordersT, "o_total")
	g := plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.Sum, Arg: plan.C(s.Schema(), "o_total"), Name: "s"},
	})
	res, err := e.RunPlan(g, "adaptive-compiles")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := volcano.Run(plan.NewGroupBy(plan.NewScan(ordersT, "o_total"), nil, nil,
		[]plan.AggExpr{{Func: plan.Sum, Arg: expr.Col(0, expr.TDec(2)), Name: "s"}}))
	if res.Rows[0][0].I != want[0][0].I {
		t.Errorf("sum %d, want %d", res.Rows[0][0].I, want[0][0].I)
	}
	// The decision itself is timing-dependent on tiny data; only assert
	// the machinery does not corrupt results. Statistics should still be
	// recorded coherently.
	if res.Stats.Pipelines == 0 || res.Stats.Instrs == 0 {
		t.Error("stats not recorded")
	}
}

func TestStatsAndTrace(t *testing.T) {
	e := New(Options{Workers: 2, Mode: ModeBytecode, Trace: true})
	s := plan.NewScan(ordersT, "o_total")
	g := plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.CountStar, Name: "n"},
	})
	res, err := e.RunPlan(g, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	evs := res.Trace.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events")
	}
	morsels := 0
	for _, ev := range evs {
		if ev.Kind == EvMorsel {
			morsels++
			if ev.End < ev.Start {
				t.Error("event times reversed")
			}
		}
	}
	if morsels == 0 {
		t.Error("no morsel events")
	}
	if g := res.Trace.Gantt(80); !strings.Contains(g, "w0") {
		t.Errorf("gantt rendering broken:\n%s", g)
	}
	if res.Stats.RegFileBytes == 0 {
		t.Error("register file size not recorded")
	}
}
