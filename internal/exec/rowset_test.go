package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/opt"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/rt/sink"
	"aqe/internal/storage"
	"aqe/internal/synth"
	"aqe/internal/tpch"
)

// boxWindow boxes every row of an emitted window, the way a consumer that
// wanted Datums would.
func boxWindow(w Rows) [][]expr.Datum {
	rs := w.Set()
	rows := make([][]expr.Datum, w.Len())
	for i := range rows {
		rec := w.Rec(i)
		rows[i] = make([]expr.Datum, len(rs.Types))
		for c := range rs.Types {
			rows[i][c] = rs.datum(rec, c)
		}
	}
	return rows
}

// TestEmitMatchesRows: all 22 TPC-H queries consumed through RunOpts.Emit
// return exactly the rows Result.Rows holds without it — same multiset,
// and for the sorted ones the same keys in the same positions — with
// nothing boxed by the engine, Stats.Rows counted from the RowSet, and
// the multi-stage queries' stage tables read straight from records.
func TestEmitMatchesRows(t *testing.T) {
	cat := diffCat()
	ctx := context.Background()
	e := New(Options{Workers: 3, Mode: ModeAdaptive, Cost: Native(), MorselSize: 256})
	for n := 1; n <= 22; n++ {
		q := tpch.Query(cat, n)
		want, err := e.RunCtx(ctx, q)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if want.Set != nil || want.Stats.Rows != int64(len(want.Rows)) {
			t.Errorf("Q%d boxed: Set=%v Stats.Rows=%d len(Rows)=%d", n, want.Set != nil, want.Stats.Rows, len(want.Rows))
		}
		var got [][]expr.Datum
		res, err := e.RunCtxOpts(ctx, q, RunOpts{Emit: func(w Rows) error {
			got = append(got, boxWindow(w)...)
			return nil
		}})
		if err != nil {
			t.Fatalf("Q%d emit: %v", n, err)
		}
		if res.Rows != nil || res.Set == nil {
			t.Fatalf("Q%d emit: Rows boxed (%d) or Set missing", n, len(res.Rows))
		}
		if res.Set.Len() != len(got) || res.Stats.Rows != int64(len(got)) {
			t.Errorf("Q%d: emitted %d rows, Set.Len %d, Stats.Rows %d", n, len(got), res.Set.Len(), res.Stats.Rows)
		}
		if !reflect.DeepEqual(res.Cols, want.Cols) || !reflect.DeepEqual(res.Types, want.Types) {
			t.Errorf("Q%d: schema differs", n)
		}
		if g, w := canon(got, res.Types), canon(want.Rows, want.Types); !reflect.DeepEqual(g, w) {
			t.Errorf("Q%d: emitted rows differ from Result.Rows (%d vs %d rows)", n, len(g), len(w))
		}
		// A second pass over the finished RowSet sees the same rows in the
		// same order as the emit calls did.
		var again [][]expr.Datum
		res.Set.Each(func(w Rows) error { again = append(again, boxWindow(w)...); return nil })
		if !reflect.DeepEqual(again, got) {
			t.Errorf("Q%d: RowSet.Each after the query differs from what was emitted", n)
		}
		if len(got) > 0 && !reflect.DeepEqual(res.Set.Datums(), got) {
			t.Errorf("Q%d: RowSet.Datums differs from what was emitted", n)
		}
		// ToTable from records equals ToTable from boxed rows.
		fromSet, fromRows := res.ToTable("t"), (&Result{Cols: res.Cols, Types: res.Types, Rows: got}).ToTable("t")
		for _, c := range res.Cols {
			a, b := fromSet.MustCol(c), fromRows.MustCol(c)
			if !reflect.DeepEqual(a.Data(), b.Data()) || !reflect.DeepEqual(a.Heap(), b.Heap()) || a.Scale != b.Scale {
				t.Errorf("Q%d: ToTable column %s differs between the record and the Datum path", n, c)
			}
		}
	}
}

// scanPlan is an unfiltered projection of lineitem: every morsel of its
// only pipeline produces rows.
func scanPlan(cat *storage.Catalog, keys []plan.SortKey, limit int) plan.Node {
	s := plan.NewScan(cat.Table("lineitem"), "l_orderkey", "l_linenumber", "l_extendedprice", "l_shipdate", "l_comment")
	if keys == nil && limit < 0 {
		return s
	}
	return plan.NewOrderBy(s, keys, limit)
}

// TestEmitOverlapsFinalPipeline pins when emit calls happen. Without an
// ORDER BY the first window must reach the consumer while the final
// pipeline is still running: the second morsel to retire waits (inside the
// engine's per-morsel test hook, on its pool worker) until the consumer
// has been called, so a run that only emitted after the pipeline would
// deadlock here and time out. With an ORDER BY no call may happen before
// the last morsel has retired, and still nothing is boxed.
func TestEmitOverlapsFinalPipeline(t *testing.T) {
	cat := diffCat()
	lineitems := cat.Table("lineitem").Rows()
	ctx := context.Background()

	e := New(Options{Workers: 2, Mode: ModeBytecode, MorselSize: 256, MorselCap: 256})
	var morsels, emits atomic.Int64
	first := make(chan struct{})
	e.morselHook = func(int, *Handle, int) {
		if morsels.Add(1) == 2 {
			select {
			case <-first:
			case <-time.After(20 * time.Second):
				t.Error("second morsel retired and no row had been emitted: the result is not streamed")
			}
		}
	}
	rows := 0
	res, err := e.RunPlanOpts(ctx, scanPlan(cat, nil, -1), "stream", RunOpts{Emit: func(w Rows) error {
		if emits.Add(1) == 1 {
			close(first)
		}
		rows += w.Len()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rows != lineitems || res.Stats.Rows != int64(lineitems) {
		t.Fatalf("streamed %d rows (Stats.Rows %d), lineitem has %d", rows, res.Stats.Rows, lineitems)
	}
	if emits.Load() < 2 {
		t.Errorf("%d emit calls for %d morsels: expected a call per batch of retired morsels", emits.Load(), morsels.Load())
	}
	if res.Stats.Emit <= 0 || res.Stats.Sort != 0 {
		t.Errorf("Stats.Emit = %v, Stats.Sort = %v", res.Stats.Emit, res.Stats.Sort)
	}

	// Sorted: the consumer runs strictly after the pipeline.
	total := morsels.Load()
	morsels.Store(0)
	emits.Store(0)
	e.morselHook = func(int, *Handle, int) {
		morsels.Add(1)
		if emits.Load() != 0 {
			t.Error("emit called before the final pipeline of an ORDER BY plan had finished")
		}
	}
	li := plan.NewScan(cat.Table("lineitem"), "l_orderkey", "l_linenumber", "l_extendedprice", "l_shipdate", "l_comment").Schema()
	keys := []plan.SortKey{{E: plan.C(li, "l_orderkey")}, {E: plan.C(li, "l_linenumber")}}
	var prev []expr.Datum
	rows = 0
	res, err = e.RunPlanOpts(ctx, scanPlan(cat, keys, -1), "sorted", RunOpts{Emit: func(w Rows) error {
		emits.Add(1)
		if morsels.Load() != total {
			t.Errorf("emit after %d of %d morsels", morsels.Load(), total)
		}
		for _, row := range boxWindow(w) {
			if prev != nil && sink.CmpRows(prev, row, keys) >= 0 {
				t.Fatalf("rows out of order: %v then %v", prev[:2], row[:2])
			}
			prev = row
			rows++
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rows != lineitems || res.Rows != nil || res.Set == nil || res.Stats.Sort <= 0 {
		t.Fatalf("sorted: %d rows, boxed=%v, Sort=%v", rows, res.Rows != nil, res.Stats.Sort)
	}
}

// TestStreamLimit: LIMIT without ORDER BY applies to arrival order, on
// the streaming path as on the boxed one — exactly Limit rows, however
// the morsels interleave.
func TestStreamLimit(t *testing.T) {
	cat := diffCat()
	ctx := context.Background()
	e := New(Options{Workers: 3, Mode: ModeBytecode, MorselSize: 128})
	lineitems := cat.Table("lineitem").Rows()
	for _, limit := range []int{0, 1, 255, 256, 257, 5000, lineitems, lineitems + 10} {
		want := min(limit, lineitems)
		got := 0
		res, err := e.RunPlanOpts(ctx, scanPlan(cat, nil, limit), "limit", RunOpts{Emit: func(w Rows) error {
			got += w.Len()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got != want || res.Set.Len() != want || res.Stats.Rows != int64(want) {
			t.Errorf("LIMIT %d streamed: %d rows emitted, Set.Len %d, Stats.Rows %d, want %d",
				limit, got, res.Set.Len(), res.Stats.Rows, want)
		}
		boxed, err := e.RunPlan(scanPlan(cat, nil, limit), "limit")
		if err != nil {
			t.Fatal(err)
		}
		if len(boxed.Rows) != want {
			t.Errorf("LIMIT %d boxed: %d rows, want %d", limit, len(boxed.Rows), want)
		}
	}
}

// TestEmitErrorCancelsQuery: an error from the consumer — the server's
// write error when a client disconnects — stops the query through the
// cancellation path: RunPlanOpts returns it wrapped, the admission ticket
// is back, and the engine answers the next query as if nothing happened.
func TestEmitErrorCancelsQuery(t *testing.T) {
	cat := diffCat()
	ctx := context.Background()
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), MorselSize: 256, MaxConcurrent: 1})
	want, err := e.RunPlan(scanPlan(cat, nil, -1), "ref")
	if err != nil {
		t.Fatal(err)
	}
	li := plan.NewScan(cat.Table("lineitem"), "l_orderkey", "l_linenumber", "l_extendedprice", "l_shipdate", "l_comment").Schema()
	keys := []plan.SortKey{{E: plan.C(li, "l_orderkey")}}
	gone := errors.New("client went away")
	for _, tc := range []struct {
		name   string
		node   plan.Node
		failAt int
	}{
		{"first window", scanPlan(cat, nil, -1), 1},
		{"third window", scanPlan(cat, nil, -1), 3},
		{"after the sort", scanPlan(cat, keys, -1), 1},
	} {
		calls := 0
		res, err := e.RunPlanOpts(ctx, tc.node, "gone", RunOpts{Emit: func(Rows) error {
			if calls++; calls >= tc.failAt {
				return gone
			}
			return nil
		}})
		if !errors.Is(err, gone) {
			t.Fatalf("%s: err = %v, want one wrapping the consumer's", tc.name, err)
		}
		if res == nil || !res.Stats.Cancelled {
			t.Errorf("%s: result %+v, want stats with Cancelled set", tc.name, res)
		}
		if calls != tc.failAt {
			t.Errorf("%s: consumer called %d times, want none after its error (%d)", tc.name, calls, tc.failAt)
		}
		if st := e.SchedStats(); st.Running != 0 || st.Waiting != 0 {
			t.Fatalf("%s: admission after the failure: %+v", tc.name, st)
		}
		again, err := e.RunPlan(scanPlan(cat, nil, -1), "ref")
		if err != nil {
			t.Fatal(err)
		}
		if checksum(again) != checksum(want) {
			t.Errorf("%s: the next query's result moved", tc.name)
		}
	}
}

// TestStalledConsumerHoldsNothing: a consumer that stops — a client that
// stopped reading — blocks only its own goroutine. The pool finishes the
// pipeline, the ticket comes back when it does, and with MaxConcurrent 1
// a second query is admitted and completes while the first still sits in
// its emit call.
func TestStalledConsumerHoldsNothing(t *testing.T) {
	cat := diffCat()
	ctx := context.Background()
	e := New(Options{Workers: 2, PoolWorkers: 2, Mode: ModeBytecode, MorselSize: 256, MaxConcurrent: 1})
	stalled, unblock := make(chan struct{}), make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		calls := 0
		_, err := e.RunPlanOpts(ctx, scanPlan(cat, nil, -1), "stalled", RunOpts{Tenant: "a", Emit: func(Rows) error {
			if calls++; calls == 1 {
				close(stalled)
				<-unblock
			}
			return nil
		}})
		firstDone <- err
	}()
	<-stalled
	secondDone := make(chan error, 1)
	go func() {
		res, err := e.RunPlanOpts(ctx, scanPlan(cat, nil, 10), "second", RunOpts{Tenant: "b"})
		if err == nil && len(res.Rows) != 10 {
			err = fmt.Errorf("second query returned %d rows", len(res.Rows))
		}
		secondDone <- err
	}()
	select {
	case err := <-secondDone:
		if err != nil {
			t.Fatalf("second query: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a second tenant's query did not finish while the first consumer was stalled: it holds a ticket or a pool worker")
	}
	close(unblock)
	if err := <-firstDone; err != nil {
		t.Fatalf("stalled query: %v", err)
	}
	if st := e.SchedStats(); st.Running != 0 {
		t.Errorf("tickets still held: %+v", st)
	}
}

// TestReplanNeverAfterEmit: with replanning force-triggered at every
// breaker, a streamed query still restarts only before its first row —
// observeBuild panics otherwise — so the consumer sees each row once, from
// the attempt that completed.
func TestReplanNeverAfterEmit(t *testing.T) {
	cat := diffCat()
	ctx := context.Background()
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: Native(), MorselSize: 512,
		ReplanThreshold: 0.5, MaxReplans: 4})
	replans := 0
	for _, qn := range joinOrderQueries {
		want, err := e.RunPlan(tpch.Query(cat, qn).Stages[0].Build(nil), "hand")
		if err != nil {
			t.Fatal(err)
		}
		lg, _ := tpch.Logical(cat, qn)
		prep, err := opt.Order(lg)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]expr.Datum
		res, err := e.RunPlanOpts(ctx, prep.Root, "forced", RunOpts{Replan: prep, Emit: func(w Rows) error {
			got = append(got, boxWindow(w)...)
			return nil
		}})
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		replans += res.Stats.Replans
		if g, w := canon(got, res.Types), canon(want.Rows, want.Types); !reflect.DeepEqual(g, w) {
			t.Errorf("Q%d: %d rows emitted across %d replans, want %d", qn, len(g), res.Stats.Replans, len(w))
		}
	}
	// Whether the TPC-H orders change under exact cardinalities depends on
	// the data; the skewed synthetic workload always replans.
	fact, dimA, dimB := synth.MisestimateTables(30000)
	prep, err := opt.Order(synth.MisestimateLogical(fact, dimA, dimB))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	res, err := New(Options{Workers: 4, Mode: ModeOptimized, Cost: Native(), MorselSize: 512}).RunPlanOpts(
		ctx, prep.Root, "misestimate", RunOpts{Replan: prep, Emit: func(w Rows) error {
			emitted += w.Len()
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if replans += res.Stats.Replans; res.Stats.Replans < 1 || emitted != 1 {
		t.Errorf("misestimate: %d replans, %d rows emitted; want a replan and the one row once", res.Stats.Replans, emitted)
	}
	t.Logf("%d replans in all", replans)
}

// TestFinalPipelineTrapAfterEmit: a trap in the final pipeline after rows
// have gone out surfaces as the query's error, past the rows already
// emitted, and leaves the engine clean.
func TestFinalPipelineTrapAfterEmit(t *testing.T) {
	const n = 20000
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < n; i++ {
		if i == n-1 {
			v.AppendInt64(0) // the last row divides by zero
		} else {
			v.AppendInt64(int64(i%7 + 1))
		}
	}
	tbl := storage.NewTable("t", v)
	s := plan.NewScan(tbl, "v")
	node := plan.NewProject(s, []expr.Expr{expr.Div(expr.Int(840), plan.C(s.Schema(), "v"))}, []string{"q"})
	e := New(Options{Workers: 1, Mode: ModeBytecode, MorselSize: 256, MorselCap: 256})
	emitted := 0
	_, err := e.RunPlanOpts(context.Background(), node, "trap", RunOpts{Emit: func(w Rows) error {
		emitted += w.Len()
		return nil
	}})
	var trap *rt.Trap
	if !errors.As(err, &trap) || trap.Code != rt.TrapDivZero {
		t.Fatalf("err = %v, want the division-by-zero trap", err)
	}
	if emitted == 0 || emitted >= n {
		t.Errorf("%d rows emitted before the trap, want some but not all of %d", emitted, n)
	}
	if st := e.SchedStats(); st.Running != 0 {
		t.Errorf("ticket leaked: %+v", st)
	}
}

// TestRowSetSortMatchesSortRows is the differential test of the record
// sorter at the level it runs: random output records (strings, NaNs,
// heavy ties) in several arena chunks across workers, sorted in place by
// RowSet.sort — column keys read from the record, an expression key
// evaluated once per row — against sink.SortRows / sink.TopK over the
// same rows boxed.
func TestRowSetSortMatchesSortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	types := []expr.Type{expr.TInt, expr.TFloat, expr.TString, expr.TInt, expr.TInt}
	cq := &codegen.Query{}
	for i, ty := range types {
		cq.Output.Cols = append(cq.Output.Cols, codegen.OutCol{Name: fmt.Sprint("c", i), T: ty, Off: cq.Output.RowSize})
		cq.Output.RowSize += 8
		if ty.Kind == expr.KString {
			cq.Output.RowSize += 8
		}
	}
	floats := []float64{0, 1, -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	words := []byte("aabbbcab")
	specs := [][]plan.SortKey{
		{{E: expr.Col(0, expr.TInt)}, {E: expr.Col(2, expr.TString), Desc: true}},
		{{E: expr.Col(2, expr.TString)}, {E: expr.Col(0, expr.TInt), Desc: true}},
		{{E: expr.Add(expr.Col(0, expr.TInt), expr.Col(3, expr.TInt)), Desc: true}, {E: expr.Col(2, expr.TString)}},
		{{E: expr.Col(1, expr.TFloat), Desc: true}},
	}
	for trial := 0; trial < 40; trial++ {
		mem := rt.NewMemory()
		heap := mem.AddSegment(words)
		out := rt.NewOutSet(mem, 3, cq.Output.RowSize)
		n := rng.Intn(3000)
		if trial == 0 {
			n = 9000 // several arena chunks per worker
		}
		for i := 0; i < n; i++ {
			w := rng.Intn(3)
			rec := out.Alloc(w)
			lo := rng.Intn(len(words))
			mem.Store64(rec, uint64(rng.Intn(4)))
			mem.StoreF64(rec+8, floats[rng.Intn(len(floats))])
			mem.Store64(rec+16, heap+uint64(lo))
			mem.Store64(rec+24, uint64(rng.Intn(len(words)-lo+1)%3))
			mem.Store64(rec+32, uint64(rng.Intn(3)))
			mem.Store64(rec+40, uint64(i)) // tag: identifies the row
		}
		rs := newRowSet(mem, cq)
		for w := 0; w < 3; w++ {
			out.Publish(w)
			out.Spans(w, 0, rs.add)
		}
		if rs.Len() != n {
			t.Fatalf("trial %d: RowSet holds %d rows, wrote %d", trial, rs.Len(), n)
		}
		boxed := rs.Datums()
		spec := specs[trial%len(specs)]
		limit := -1
		if trial%2 == 1 {
			limit = rng.Intn(n + 2)
		}
		var want [][]expr.Datum
		if limit >= 0 {
			want = sink.TopK(append([][]expr.Datum(nil), boxed...), spec, limit)
		} else {
			want = append([][]expr.Datum(nil), boxed...)
			sink.SortRows(want, spec)
		}
		if err := rs.sort(spec, limit); err != nil {
			t.Fatal(err)
		}
		got := rs.Datums()
		if len(got) != len(want) || rs.Len() != len(want) {
			t.Fatalf("trial %d: %d rows after sort (Len %d), want %d", trial, len(got), rs.Len(), len(want))
		}
		for i := range got {
			if got[i][4].I != want[i][4].I {
				t.Fatalf("trial %d limit %d: position %d holds row %d, SortRows/TopK put %d there",
					trial, limit, i, got[i][4].I, want[i][4].I)
			}
		}
	}
}

// TestAppendFormatMatchesSprintf: AppendFormat over raw slots renders
// exactly what Format rendered through fmt and time — %.4f rounding,
// NaN and infinities, every kind — so neither protocol's text moved.
func TestAppendFormatMatchesSprintf(t *testing.T) {
	old := func(d expr.Datum, ty expr.Type) string {
		switch ty.Kind {
		case expr.KFloat:
			return fmt.Sprintf("%.4f", d.F)
		case expr.KDecimal:
			return storage.DecimalString(d.I, ty.Scale) // checked against Sprintf in storage
		case expr.KDate:
			return storage.FormatDate(d.I) // checked against time.Format in storage
		case expr.KString:
			return d.S
		case expr.KChar:
			return string(rune(byte(d.I)))
		case expr.KBool:
			if d.I != 0 {
				return "true"
			}
			return "false"
		}
		return fmt.Sprintf("%d", d.I)
	}
	rng := rand.New(rand.NewSource(3))
	fl := []float64{0, math.Copysign(0, -1), 0.00005, 0.00015, 0.12345, 0.12355, -0.00005, 1e-9, 2.5, 1e15, 1e21, -1e21,
		123456.78905, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 20000; i++ {
		fl = append(fl, math.Float64frombits(rng.Uint64()), (rng.Float64()-0.5)*math.Pow10(rng.Intn(12)-4))
	}
	for _, f := range fl {
		d := expr.Datum{F: f}
		if got, want := Format(d, expr.TFloat), old(d, expr.TFloat); got != want {
			t.Fatalf("float %v (%#x): %q, Sprintf says %q", f, math.Float64bits(f), got, want)
		}
	}
	ints := []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64}
	for i := 0; i < 2000; i++ {
		ints = append(ints, int64(rng.Uint64())>>uint(rng.Intn(64)))
	}
	for _, v := range ints {
		d := expr.Datum{I: v}
		for _, ty := range []expr.Type{expr.TInt, {Kind: expr.KBool}, {Kind: expr.KChar}, {Kind: expr.KDecimal, Scale: 2}, {Kind: expr.KDate}} {
			if ty.Kind == expr.KDate && (v > 3_000_000 || v < -1_000_000) {
				continue // beyond what time.Time's AddDate takes as an int of days
			}
			if ty.Kind == expr.KDecimal && v == math.MinInt64 {
				continue // the old formatter overflowed there
			}
			if got, want := Format(d, ty), old(d, ty); got != want {
				t.Fatalf("%v %d: %q, want %q", ty, v, got, want)
			}
		}
	}
	if got := Format(expr.Datum{S: "as is <&>"}, expr.TString); got != "as is <&>" {
		t.Errorf("string: %q", got)
	}
}
