package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

// zoneCat is a TPC-H catalog with fine-grained zone maps (512-row blocks:
// at SF 0.003 the default 64k blocks would cover whole tables, and the
// differential test wants pruning to actually fire).
var zoneCat = sync.OnceValue(func() *storage.Catalog {
	cat := tpch.Gen(0.003)
	cat.BuildZoneMaps(512)
	return cat
})

// runStagesVolcano executes a multi-stage query on the Volcano
// interpreter, materializing every stage result into a table for the
// later stages exactly as Engine.Run does.
func runStagesVolcano(t *testing.T, q plan.Query) ([][]expr.Datum, []expr.Type) {
	t.Helper()
	prior := make(map[string]*storage.Table)
	var rows [][]expr.Datum
	var types []expr.Type
	for i, st := range q.Stages {
		node := st.Build(prior)
		var err error
		if rows, err = volcano.Run(node); err != nil {
			t.Fatalf("%s stage %s: volcano: %v", q.Name, st.Name, err)
		}
		types = typesOf(node.Schema())
		if i < len(q.Stages)-1 {
			res := &Result{Rows: rows, Types: types}
			for _, c := range node.Schema() {
				res.Cols = append(res.Cols, c.Name)
			}
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	return rows, types
}

// TestZoneMapDifferential22 runs all 22 TPC-H queries under all five
// execution modes on fine-grained zone maps and asserts the results equal
// the Volcano interpreter's, which never prunes — pruning must be
// invisible in every tier. Floats are compared at the precision of
// TestAll22QueriesAgainstOracle (internal/tpch): Volcano sums serially. It
// also asserts that pruning actually fired somewhere, so the equality
// isn't vacuous.
func TestZoneMapDifferential22(t *testing.T) {
	const floatFmt = "|%.5g"
	cat := zoneCat()
	want := make(map[int][]string)
	for qn := 1; qn <= 22; qn++ {
		rows, types := runStagesVolcano(t, tpch.Query(cat, qn))
		want[qn] = canonFloat(rows, types, floatFmt)
	}
	modes := []Mode{ModeBytecode, ModeNative, ModeOptimized, ModeAdaptive, ModeIRInterp}
	var pruned int64
	for _, mode := range modes {
		e := New(Options{Workers: 4, Mode: mode, Cost: Native(), MorselSize: 256})
		for qn := 1; qn <= 22; qn++ {
			res, err := e.Run(tpch.Query(cat, qn))
			if err != nil {
				t.Fatalf("%v Q%d: %v", mode, qn, err)
			}
			got := canonFloat(res.Rows, res.Types, floatFmt)
			if len(got) != len(want[qn]) {
				t.Errorf("%v Q%d: %d rows, want %d (volcano)", mode, qn, len(got), len(want[qn]))
			} else {
				for i := range got {
					if got[i] != want[qn][i] {
						t.Errorf("%v Q%d: row %d\n got %s\nwant %s (volcano)",
							mode, qn, i, got[i], want[qn][i])
						break
					}
				}
			}
			pruned += res.Stats.TuplesPruned
		}
	}
	if pruned == 0 {
		t.Error("no tuples pruned across 22 queries — differential is vacuous")
	}
}

// mkClustered builds a table whose fixed-width columns correlate with the
// row index (the clustered layout zone maps exploit), plus a String
// column that must never contribute to pruning.
func mkClustered(rows int, rng *rand.Rand) *storage.Table {
	a := storage.NewColumn("a", storage.Int64)
	c := storage.NewColumn("c", storage.Decimal)
	dt := storage.NewColumn("dt", storage.Date)
	f := storage.NewColumn("f", storage.Float64)
	ch := storage.NewColumn("ch", storage.Char)
	s := storage.NewColumn("s", storage.String)
	for i := 0; i < rows; i++ {
		a.AppendInt64(int64(i + rng.Intn(40)))
		c.AppendInt64(int64(i*3 + rng.Intn(150)))
		dt.AppendInt64(int64(8000 + i/4 + rng.Intn(8)))
		f.AppendFloat64(float64(i) + rng.Float64()*30)
		ch.AppendChar(byte('A' + (i*20)/rows))
		s.AppendString(fmt.Sprintf("row-%d", i))
	}
	return storage.NewTable("clustered", a, c, dt, f, ch, s)
}

// TestZoneMapPropertyRandomPredicates throws random sargable conjunctions
// at a clustered table and checks per trial that the pruning engine agrees
// with volcano. Thresholds are drawn to land inside, outside, and exactly
// on block boundaries.
func TestZoneMapPropertyRandomPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(20180416))
	const rows, blockRows = 2000, 64
	tbl := mkClustered(rows, rng)
	tbl.BuildZoneMaps(blockRows)

	e := New(Options{Workers: 3, Mode: ModeOptimized, Cost: Native(), MorselSize: 32})

	mkConj := func(sch []plan.ColDef) expr.Expr {
		// A threshold near a block-boundary row index, sometimes far
		// outside the data range.
		idx := int64(blockRows*rng.Intn(rows/blockRows) + rng.Intn(3) - 1)
		if rng.Intn(8) == 0 {
			idx = int64(rng.Intn(3)*rows - rows) // -rows, 0, rows
		}
		type cmp2 func(l, r expr.Expr) expr.Expr
		ops := []cmp2{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
		op := ops[rng.Intn(len(ops))]
		var l, r expr.Expr
		switch rng.Intn(5) {
		case 0:
			l, r = plan.C(sch, "a"), expr.Int(idx)
		case 1:
			// Decimal column (scale 2): sometimes a coarser-scale or
			// int constant (prunable after rescale), sometimes scale 3
			// (column would be rescaled at runtime — not prunable).
			switch rng.Intn(3) {
			case 0:
				l, r = plan.C(sch, "c"), expr.Dec(idx*300, 2)
			case 1:
				l, r = plan.C(sch, "c"), expr.Int(idx*3)
			default:
				l, r = plan.C(sch, "c"), expr.Dec(idx*3000, 3)
			}
		case 2:
			l, r = plan.C(sch, "dt"), expr.Date(8000+idx/4)
		case 3:
			l, r = plan.C(sch, "f"), expr.Float(float64(idx))
		default:
			l, r = plan.C(sch, "ch"), expr.Ch(byte('A'+rng.Intn(22)))
		}
		if rng.Intn(2) == 0 {
			l, r = r, l // constant on the left: extraction must flip
		}
		return op(l, r)
	}

	var prunedTotal int64
	for trial := 0; trial < 60; trial++ {
		// Draw the predicate once per trial; both builds (volcano and the
		// engine) must see the same condition.
		conj := make([]expr.Expr, 1+rng.Intn(3))
		for i := range conj {
			conj[i] = mkConj(plan.NewScan(tbl, "a", "c", "dt", "f", "ch", "s").Schema())
		}
		build := func() plan.Node {
			s := plan.NewScan(tbl, "a", "c", "dt", "f", "ch", "s")
			sch := s.Schema()
			if len(conj) == 1 {
				s.Where(conj[0])
			} else {
				s.Where(expr.And(conj...))
			}
			return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
				{Func: plan.CountStar, Name: "n"},
				{Func: plan.Sum, Arg: plan.C(sch, "a"), Name: "sa"},
				{Func: plan.Min, Arg: plan.C(sch, "c"), Name: "mc"},
			})
		}
		ref := build()
		want, err := volcano.Run(ref)
		if err != nil {
			t.Fatalf("trial %d: volcano: %v", trial, err)
		}
		wantC := canon(want, typesOf(ref.Schema()))
		res, err := e.RunPlan(build(), "prop")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotC := canon(res.Rows, res.Types)
		if len(gotC) != len(wantC) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("trial %d: row %d\n got %s\nwant %s", trial, i, gotC[i], wantC[i])
			}
		}
		prunedTotal += res.Stats.TuplesPruned
	}
	if prunedTotal == 0 {
		t.Error("60 random trials never pruned — property test is vacuous")
	}
}

// countAll builds a filtered COUNT(*)+SUM plan over tbl.
func countAll(tbl *storage.Table, filter func(sch []plan.ColDef) expr.Expr) plan.Node {
	s := plan.NewScan(tbl, "a", "s")
	sch := s.Schema()
	s.Where(filter(sch))
	return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.CountStar, Name: "n"},
	})
}

// runCount executes the plan and returns (count, stats).
func runCount(t *testing.T, e *Engine, node plan.Node) (int64, Stats) {
	t.Helper()
	res, err := e.RunPlan(node, "edge")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d result rows, want 1", len(res.Rows))
	}
	return res.Rows[0][0].I, res.Stats
}

func TestZoneMapEdgeCases(t *testing.T) {
	e := New(Options{Workers: 2, Mode: ModeBytecode, MorselSize: 16})
	mk := func(rows int) *storage.Table {
		a := storage.NewColumn("a", storage.Int64)
		s := storage.NewColumn("s", storage.String)
		for i := 0; i < rows; i++ {
			a.AppendInt64(int64(i))
			s.AppendString(fmt.Sprintf("v%d", i%3))
		}
		return storage.NewTable("edge", a, s)
	}

	t.Run("empty-table", func(t *testing.T) {
		tbl := mk(0)
		tbl.BuildZoneMaps(64)
		n, st := runCount(t, e, countAll(tbl, func(sch []plan.ColDef) expr.Expr {
			return expr.Gt(plan.C(sch, "a"), expr.Int(5))
		}))
		if n != 0 || st.TuplesPruned != 0 {
			t.Errorf("count %d, pruned %d; want 0, 0", n, st.TuplesPruned)
		}
	})

	t.Run("single-partial-block", func(t *testing.T) {
		tbl := mk(40) // one partial 64-row block
		tbl.BuildZoneMaps(64)
		n, st := runCount(t, e, countAll(tbl, func(sch []plan.ColDef) expr.Expr {
			return expr.Gt(plan.C(sch, "a"), expr.Int(1000))
		}))
		if n != 0 {
			t.Errorf("count %d, want 0", n)
		}
		if st.TuplesPruned != 40 || st.BlocksPruned != 1 {
			t.Errorf("pruned %d tuples / %d blocks; want 40 / 1",
				st.TuplesPruned, st.BlocksPruned)
		}
	})

	t.Run("string-predicate-no-pruning", func(t *testing.T) {
		tbl := mk(200)
		tbl.BuildZoneMaps(64)
		n, st := runCount(t, e, countAll(tbl, func(sch []plan.ColDef) expr.Expr {
			return expr.Eq(plan.C(sch, "s"), expr.Str("does-not-exist"))
		}))
		if n != 0 {
			t.Errorf("count %d, want 0", n)
		}
		if st.TuplesPruned != 0 || st.PrunableTuples != 0 {
			t.Errorf("String predicate pruned %d/%d tuples; want none",
				st.TuplesPruned, st.PrunableTuples)
		}
	})

	t.Run("predicate-spanning-block-boundary", func(t *testing.T) {
		tbl := mk(256) // 4 full 64-row blocks, a = 0..255
		tbl.BuildZoneMaps(64)
		// a >= 100: blocks 0 (0..63) pruned; block 1 (64..127) straddles
		// the threshold and must be kept and filtered in the kernel.
		n, st := runCount(t, e, countAll(tbl, func(sch []plan.ColDef) expr.Expr {
			return expr.Ge(plan.C(sch, "a"), expr.Int(100))
		}))
		if n != 156 {
			t.Errorf("count %d, want 156", n)
		}
		if st.BlocksPruned != 1 || st.TuplesPruned != 64 {
			t.Errorf("pruned %d blocks / %d tuples; want 1 / 64",
				st.BlocksPruned, st.TuplesPruned)
		}
	})

	t.Run("exact-block-boundary", func(t *testing.T) {
		tbl := mk(256)
		tbl.BuildZoneMaps(64)
		// a >= 128 falls exactly on the block 1/2 boundary: blocks 0 and 1
		// prune entirely (max 127 < 128), block 2 keeps all rows.
		n, st := runCount(t, e, countAll(tbl, func(sch []plan.ColDef) expr.Expr {
			return expr.Ge(plan.C(sch, "a"), expr.Int(128))
		}))
		if n != 128 {
			t.Errorf("count %d, want 128", n)
		}
		if st.BlocksPruned != 2 || st.TuplesPruned != 128 {
			t.Errorf("pruned %d blocks / %d tuples; want 2 / 128",
				st.BlocksPruned, st.TuplesPruned)
		}
	})
}

// TestPruneProgressAccounting is the controller-facing contract (§III-C):
// the dispatcher never hands out a morsel intersecting a pruned block, so
// every rate sample reflects only executed tuples, and the remaining-work
// extrapolation (work - done) drains to exactly zero — pruned tuples are
// not part of the work the controller amortizes a compilation over.
func TestPruneProgressAccounting(t *testing.T) {
	const total, blockRows = 10_000, 256
	opts := Options{MorselSize: 32, MorselCap: 512}
	nb := (total + blockRows - 1) / blockRows
	pruned := make([]bool, nb)
	var prunedTuples int64
	for b := 0; b < nb; b++ {
		if b%3 == 1 || b == nb-1 { // interior runs plus the partial tail
			pruned[b] = true
			end := (b + 1) * blockRows
			if end > total {
				end = total
			}
			prunedTuples += int64(end - b*blockRows)
		}
	}
	pr := newProgress(total, opts)
	pr.setPruneMask(&pruneMask{blockRows: blockRows, pruned: pruned,
		prunedTuples: prunedTuples})

	if pr.work != total-prunedTuples {
		t.Fatalf("work = %d, want %d", pr.work, total-prunedTuples)
	}
	var executed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				begin, end, ok := pr.claim()
				if !ok {
					return
				}
				if begin >= end {
					t.Errorf("empty claim [%d,%d)", begin, end)
					return
				}
				for b := begin / blockRows; b*blockRows < end; b++ {
					if pruned[b] {
						t.Errorf("claim [%d,%d) intersects pruned block %d", begin, end, b)
						return
					}
				}
				pr.report(end-begin, time.Microsecond)
				mu.Lock()
				executed += end - begin
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if executed != pr.work {
		t.Errorf("executed %d tuples, want work = %d", executed, pr.work)
	}
	// The controller's remaining-work term: must be exactly zero once all
	// non-pruned tuples are done. With pr.total instead of pr.work it
	// would still see prunedTuples outstanding forever.
	if rem := pr.work - pr.done.Load(); rem != 0 {
		t.Errorf("remaining work %d after drain, want 0", rem)
	}
	if pr.total-pr.done.Load() != prunedTuples {
		t.Errorf("done = %d, want %d (executed only)", pr.done.Load(), pr.work)
	}
	if pr.rate() <= 0 {
		t.Error("no rate samples despite executed morsels")
	}
}

// TestMorselGrowthOptions pins the growth schedule: size doubles every
// morselGrowEvery claims and clamps at MorselCap.
func TestMorselGrowthOptions(t *testing.T) {
	pr := newProgress(1<<40, Options{MorselSize: 16, MorselCap: 64})
	for i := 0; i < 4*morselGrowEvery; i++ {
		want := int64(16) << min(i/morselGrowEvery, 2)
		begin, end, ok := pr.claim()
		if !ok {
			t.Fatalf("claim %d: exhausted", i)
		}
		if end-begin != want {
			t.Errorf("claim %d: size %d, want %d", i, end-begin, want)
		}
	}
	// Engine defaults preserve the historical schedule (base 2048, ×2
	// every 8 claims, cap 64k).
	e := New(Options{})
	if e.opts.MorselSize != 2048 || e.opts.MorselCap != 65536 || morselGrowEvery != 8 {
		t.Errorf("defaults: size %d, cap %d, growEvery %d; want 2048, 65536, 8",
			e.opts.MorselSize, e.opts.MorselCap, morselGrowEvery)
	}
}
