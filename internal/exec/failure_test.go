package exec

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// TestFinalizeTrapIsQueryError: a SUM whose two worker partials are each
// in range overflows only when the breaker merges them. That trap is
// raised while the aggregation finalizes — on a pool worker, which hands
// it back to the coordinator — and must come out of RunPlan as the query's
// error, never as a panic. A barrier after every morsel holds each of two
// workers to exactly one row. With one worker there is nothing to merge:
// the same sum overflows in the worker's own morsel, and the one-partition
// finalize that follows it must not hide the trap.
func TestFinalizeTrapIsQueryError(t *testing.T) {
	v := storage.NewColumn("v", storage.Int64)
	v.AppendInt64(1 << 62)
	v.AppendInt64(1 << 62)
	tbl := storage.NewTable("halves", v)
	build := func() plan.Node {
		s := plan.NewScan(tbl, "v")
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(s.Schema(), "v"), Name: "s"},
		})
	}
	for _, workers := range []int{2, 1} {
		for _, mode := range []Mode{ModeBytecode, ModeNative, ModeAdaptive} {
			name := mode.String()
			if workers == 1 {
				name += "/workers=1"
			}
			t.Run(name, func(t *testing.T) {
				e := New(Options{Workers: workers, PoolWorkers: 2, Mode: mode, Cost: Native(),
					MorselSize: 1, MorselCap: 1})
				var arrived atomic.Int32
				both := make(chan struct{})
				if workers == 2 {
					e.morselHook = func(int, *Handle, int) {
						if arrived.Add(1) == 2 {
							close(both)
						}
						select {
						case <-both:
						case <-time.After(10 * time.Second):
							t.Error("the second worker never ran its morsel")
						}
					}
				}
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic escaped RunPlan: %v", r)
						}
					}()
					_, err = e.RunPlan(build(), "merge-overflow")
				}()
				if n := arrived.Load(); workers == 2 && n != 2 {
					t.Fatalf("%d morsels ran, want one per worker", n)
				}
				var trap *rt.Trap
				if !errors.As(err, &trap) || trap.Code != rt.TrapOverflow {
					t.Fatalf("error %v, want the numeric overflow trap", err)
				}
			})
		}
	}
}

// TestNothingRunsAfterFailedPipeline: when pipeline 1 of three fails — by
// a trap in its own code, or by a cancel that lands while it runs — the
// query ends with that failure. Pipeline 1 does not finalize, and pipeline
// 2, a table scan that could start on its own, neither dispatches a morsel
// nor finalizes.
func TestNothingRunsAfterFailedPipeline(t *testing.T) {
	// Pipeline 0 builds the customers, pipeline 1 builds the orders that
	// pass its filter, pipeline 2 probes both with every order. With trap,
	// the filter overflows on every row but the first.
	build := func(trap bool) plan.Node {
		k := int64(0)
		if trap {
			k = math.MaxInt64
		}
		c := plan.NewScan(custT, "c_id")
		o1 := plan.NewScan(ordersT, "o_id")
		o1.Where(expr.Gt(expr.Add(plan.C(o1.Schema(), "o_id"), expr.Int(k)), expr.Int(-1)))
		o2 := plan.NewScan(ordersT, "o_id", "o_cust")
		j1 := plan.NewJoin(plan.Inner, o1, o2,
			[]expr.Expr{plan.C(o1.Schema(), "o_id")},
			[]expr.Expr{plan.C(o2.Schema(), "o_id")}, nil)
		return plan.NewJoin(plan.Inner, c, j1,
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]expr.Expr{plan.C(j1.Schema(), "o_cust")}, nil)
	}
	for _, r := range []struct {
		mode    Mode
		trap    bool
		workers int
	}{
		{ModeBytecode, true, 2}, {ModeBytecode, false, 2},
		{ModeAdaptive, true, 2}, {ModeAdaptive, false, 2},
		// One worker: pipeline 0's breaker finalizes in one partition,
		// through the scheduler like any other.
		{ModeAdaptive, false, 1},
	} {
		trap, name := r.trap, r.mode.String()+"/cancel"
		if trap {
			name = r.mode.String() + "/trap"
		}
		if r.workers == 1 {
			name += "/workers=1"
		}
		t.Run(name, func(t *testing.T) {
			e := New(Options{Workers: r.workers, PoolWorkers: 2, Mode: r.mode, Cost: Native(),
				MorselSize: 64, MorselCap: 64})
			mem := rt.NewMemory()
			cq, err := codegen.Compile(build(trap), mem, name)
			if err != nil {
				t.Fatal(err)
			}
			if len(cq.Pipelines) != 3 || cq.Pipelines[1].Table == nil || cq.Pipelines[2].Table == nil {
				t.Fatalf("plan shape changed: %d pipelines", len(cq.Pipelines))
			}
			tr := NewTrace()
			qr, err := e.newQueryRun(cq, mem, &Stats{}, tr)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			morsels := make([]int, len(cq.Pipelines))
			e.morselHook = func(pipeline int, _ *Handle, _ int) {
				mu.Lock()
				morsels[pipeline]++
				mu.Unlock()
				if !trap && pipeline == 1 {
					qr.cancel(context.Canceled)
				}
			}
			err = qr.execute()
			if trap {
				var tp *rt.Trap
				if !errors.As(err, &tp) || tp.Code != rt.TrapOverflow {
					t.Fatalf("error %v, want the numeric overflow trap", err)
				}
			} else {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error %v does not wrap context.Canceled", err)
				}
				if morsels[1] == 0 {
					t.Fatal("pipeline 1 never ran, so nothing cancelled it")
				}
			}
			if morsels[0] == 0 || morsels[2] != 0 {
				t.Errorf("morsels per pipeline %v: pipeline 2 ran after pipeline 1 failed", morsels)
			}
			finalized := map[int]bool{}
			for _, ev := range tr.Events() {
				if ev.Kind == EvFinalize {
					finalized[ev.Pipeline] = true
				}
			}
			if !finalized[0] || finalized[1] || finalized[2] {
				t.Errorf("finalized pipelines %v, want only pipeline 0", finalized)
			}
		})
	}
}
