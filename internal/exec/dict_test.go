package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
	"aqe/internal/volcano"
)

// mkStrTable builds the dictionary-test table: a clustered string column s
// (50 distinct values in sorted runs, so code zone maps prune), a shuffled
// string column u, and an integer measure v. withDict controls whether
// dictionaries (and therefore string zone maps) exist.
func mkStrTable(rows int, withDict bool) *storage.Table {
	rng := rand.New(rand.NewSource(17))
	s := storage.NewColumn("s", storage.String)
	u := storage.NewColumn("u", storage.String)
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < rows; i++ {
		s.AppendString(fmt.Sprintf("item-%03d", i*50/rows))
		u.AppendString(fmt.Sprintf("word-%03d", rng.Intn(40)))
		v.AppendInt64(int64(rng.Intn(1000)))
	}
	tb := storage.NewTable("strs", s, u, v)
	if withDict {
		tb.BuildDicts()
	}
	tb.BuildZoneMaps(256)
	return tb
}

// randStrPred draws a random string conjunct over column col: comparison
// (all six operators), IN, or LIKE, with literals that are sometimes in
// the domain, sometimes between values, sometimes outside the range.
func randStrPred(rng *rand.Rand, sch []plan.ColDef, col, stem string) expr.Expr {
	c := func() expr.Expr { return plan.C(sch, col) }
	lit := func() string {
		switch rng.Intn(5) {
		case 0, 1:
			return fmt.Sprintf("%s-%03d", stem, rng.Intn(50))
		case 2:
			return fmt.Sprintf("%s-%03dx", stem, rng.Intn(50)) // between values
		case 3:
			return "" // below everything
		default:
			return "~~~" // above everything
		}
	}
	switch rng.Intn(5) {
	case 0:
		ops := []func(l, r expr.Expr) expr.Expr{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
		return ops[rng.Intn(len(ops))](c(), expr.Str(lit()))
	case 1: // constant on the left (flipped operand order)
		ops := []func(l, r expr.Expr) expr.Expr{expr.Lt, expr.Ge}
		return ops[rng.Intn(len(ops))](expr.Str(lit()), c())
	case 2:
		n := 1 + rng.Intn(4)
		vals := make([]expr.Expr, n)
		for i := range vals {
			vals[i] = expr.Str(lit())
		}
		return expr.In(c(), vals...)
	case 3:
		pats := []string{stem + "-01%", "%3", "%m-02%", stem + "-_2%", "zzz%", "%"}
		return expr.Like(c(), pats[rng.Intn(len(pats))])
	default: // conjunction of two simpler ones
		return expr.And(
			randStrPredSimple(rng, sch, col, stem),
			randStrPredSimple(rng, sch, col, stem))
	}
}

func randStrPredSimple(rng *rand.Rand, sch []plan.ColDef, col, stem string) expr.Expr {
	for {
		if p := randStrPred(rng, sch, col, stem); p != nil {
			return p
		}
	}
}

// TestDictPredicateProperty is the dictionary oracle: random string
// predicates over dictionary-encoded and raw columns, executed across
// tiers, must match the Volcano interpreter row for row. The raw table
// drives the undictionarized path.
func TestDictPredicateProperty(t *testing.T) {
	const rows = 4000
	tables := map[string]*storage.Table{
		"dict": mkStrTable(rows, true),
		"raw":  mkStrTable(rows, false),
	}
	engines := map[string]*Engine{
		"opt":      New(Options{Workers: 4, Mode: ModeOptimized, Cost: Native()}),
		"bc":       New(Options{Workers: 2, Mode: ModeBytecode}),
		"irinterp": New(Options{Workers: 2, Mode: ModeIRInterp}),
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		for tname, tb := range tables {
			sc := plan.NewScan(tb, "s", "u", "v")
			sch := sc.Schema()
			col, stem := "s", "item"
			if rng.Intn(2) == 1 {
				col, stem = "u", "word"
			}
			pred := randStrPred(rng, sch, col, stem)
			sc.Where(pred)
			var node plan.Node
			if trial%2 == 0 {
				// Group by the dictionary column: code hashing.
				node = plan.NewGroupBy(sc,
					[]expr.Expr{plan.C(sch, "s")}, []string{"s"},
					[]plan.AggExpr{
						{Func: plan.CountStar, Name: "n"},
						{Func: plan.Sum, Arg: plan.C(sch, "v"), Name: "sv"},
					})
			} else {
				// ORDER BY + LIMIT: the bounded top-k path. The key list
				// covers every column, so tied rows are identical and the
				// top-k multiset is deterministic.
				node = plan.NewOrderBy(sc, []plan.SortKey{
					{E: plan.C(sch, "s")},
					{E: plan.C(sch, "v"), Desc: true},
					{E: plan.C(sch, "u")},
				}, rng.Intn(25))
			}
			want, err := volcano.Run(node)
			if err != nil {
				t.Fatalf("trial %d %s: volcano: %v", trial, tname, err)
			}
			wantC := canon(want, typesOf(node.Schema()))
			for ename, e := range engines {
				if ename == "irinterp" && trial%8 != 0 {
					continue // the IR interpreter is slow; sample it
				}
				res, err := e.RunPlan(node, "dictprop")
				if err != nil {
					t.Fatalf("trial %d %s [%s] pred %v: %v", trial, tname, ename, pred, err)
				}
				gotC := canon(res.Rows, res.Types)
				if len(gotC) != len(wantC) {
					t.Fatalf("trial %d %s [%s] pred %v: %d rows, want %d",
						trial, tname, ename, pred, len(gotC), len(wantC))
				}
				for i := range gotC {
					if gotC[i] != wantC[i] {
						t.Fatalf("trial %d %s [%s] pred %v: row %d\n got %s\nwant %s",
							trial, tname, ename, pred, i, gotC[i], wantC[i])
					}
				}
			}
		}
	}
}

// TestDictCacheDistinct: the same plan over a dictionary-encoded table and
// over its raw twin compiles to different code, so on one engine each
// misses the cache cold, warm-hits its own entry, and reports its own
// fingerprint — dictionary and raw artifacts never mix — while both
// return identical results.
func TestDictCacheDistinct(t *testing.T) {
	build := func(tb *storage.Table) plan.Node {
		sc := plan.NewScan(tb, "s", "u", "v")
		sch := sc.Schema()
		sc.Where(expr.And(
			expr.Ge(plan.C(sch, "s"), expr.Str("item-010")),
			expr.Like(plan.C(sch, "u"), "word-01%")))
		return plan.NewGroupBy(sc, []expr.Expr{plan.C(sch, "s")}, []string{"s"},
			[]plan.AggExpr{{Func: plan.CountStar, Name: "n"}})
	}
	e := New(Options{Workers: 2, Mode: ModeOptimized, Cost: Native(), CacheBytes: 64 << 20})
	sums := map[bool]string{}
	fps := map[bool]string{}
	for _, withDict := range []bool{true, false} {
		tb := mkStrTable(2000, withDict)
		cold, err := e.RunPlan(build(tb), "dictcache")
		if err != nil {
			t.Fatal(err)
		}
		warm, err := e.RunPlan(build(tb), "dictcache")
		if err != nil {
			t.Fatal(err)
		}
		if cold.Stats.CacheHit {
			t.Errorf("withDict=%v: cold run hit the other table's entry", withDict)
		}
		if !warm.Stats.CacheHit {
			t.Errorf("withDict=%v: warm run missed the cache", withDict)
		}
		if checksum(cold) != checksum(warm) {
			t.Errorf("withDict=%v: warm checksum diverged", withDict)
		}
		sums[withDict] = checksum(cold)
		fps[withDict] = cold.Stats.Fingerprint
	}
	if sums[false] != sums[true] {
		t.Error("dict and raw results differ")
	}
	if fps[false] == fps[true] {
		t.Error("dict and raw executions share a fingerprint")
	}
}

// TestDictStatsAndTrace: the counters and the trace event. A range
// predicate on the clustered column must rewrite to codes, prune string
// blocks, and emit EvDictRewrite, and the result must equal Volcano's.
func TestDictStatsAndTrace(t *testing.T) {
	tb := mkStrTable(8000, true)
	build := func() plan.Node {
		sc := plan.NewScan(tb, "s", "v")
		sch := sc.Schema()
		sc.Where(expr.Lt(plan.C(sch, "s"), expr.Str("item-010")))
		return plan.NewGroupBy(sc, []expr.Expr{plan.C(sch, "s")}, []string{"s"},
			[]plan.AggExpr{{Func: plan.Sum, Arg: plan.C(sch, "v"), Name: "sv"}})
	}
	e := New(Options{Workers: 2, Mode: ModeOptimized, Cost: Native(), Trace: true})
	res, err := e.RunPlan(build(), "dictstats")
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.DictHits == 0 || st.DictRewrites < st.DictHits {
		t.Errorf("implausible rewrite counters: rewrites=%d hits=%d", st.DictRewrites, st.DictHits)
	}
	if st.StringBlocksPruned == 0 {
		t.Errorf("no string blocks pruned (pruned=%d blocks total)", st.BlocksPruned)
	}
	sawEvent := false
	for _, ev := range res.Trace.Events() {
		if ev.Kind == EvDictRewrite && ev.Tuples > 0 {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Error("no EvDictRewrite trace event")
	}

	ref := build()
	want, err := volcano.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := canon(res.Rows, res.Types), canon(want, typesOf(ref.Schema())); !slices.Equal(got, w) {
		t.Errorf("result differs from volcano\n got %v\nwant %v", got, w)
	}
}
