package exec

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/plan"
)

// paramFilterPlan builds scan→filter→aggregate over the shared orders
// table, with the threshold and status predicate operands supplied by
// the caller — either constants or expr.ParamRef placeholders, so the
// parameterized and literal forms of the same query share one builder.
func paramFilterPlan(thresh, status expr.Expr) plan.Node {
	s := plan.NewScan(ordersT, "o_total", "o_status")
	sch := s.Schema()
	s.Where(expr.And(
		expr.Gt(plan.C(sch, "o_total"), thresh),
		expr.Eq(plan.C(sch, "o_status"), status)))
	return plan.NewGroupBy(s,
		[]expr.Expr{plan.C(sch, "o_status")}, []string{"st"},
		[]plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"},
			{Func: plan.CountStar, Name: "n"}})
}

// TestParamBindingsShareOnePlan is the prepared-statement property test:
// the same parameterized plan executed under many random bindings must
// (a) produce rows identical to the equivalent literal plan, and (b)
// occupy exactly one cache entry, hit on every execution after the
// first with zero translate and compile time.
func TestParamBindingsShareOnePlan(t *testing.T) {
	ctx := context.Background()
	native := Native()
	configs := map[string]Options{
		"bytecode": {Workers: 1, Mode: ModeBytecode, CacheBytes: 8 << 20},
		"adaptive": {Workers: 3, Mode: ModeAdaptive, Cost: native,
			CacheBytes: 8 << 20, MorselSize: 256},
		"optimized": {Workers: 2, Mode: ModeOptimized, Cost: native,
			CacheBytes: 8 << 20},
	}
	for name, o := range configs {
		t.Run(name, func(t *testing.T) {
			e := New(o)    // runs the parameterized plan (one entry)
			eRef := New(o) // runs the literal plans (one entry each)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 40; i++ {
				v := int64(rng.Intn(100000))
				c := "OFP"[rng.Intn(3)]
				args := []*expr.Const{
					expr.Dec(v, 2).(*expr.Const),
					expr.Ch(c).(*expr.Const),
				}
				got, err := e.RunPlanOpts(ctx,
					paramFilterPlan(expr.ParamRef(0, expr.TDec(2)), expr.ParamRef(1, expr.TChar)),
					"param", RunOpts{Params: args})
				if err != nil {
					t.Fatalf("binding %d: %v", i, err)
				}
				want, err := eRef.RunPlan(
					paramFilterPlan(expr.Dec(v, 2), expr.Ch(c)), "literal")
				if err != nil {
					t.Fatalf("literal %d: %v", i, err)
				}
				gc := canon(got.Rows, got.Types)
				wc := canon(want.Rows, want.Types)
				if !reflect.DeepEqual(gc, wc) {
					t.Fatalf("binding %d (v=%d c=%c): rows differ\n got %v\nwant %v", i, v, c, gc, wc)
				}
				if got.Stats.Cache.Entries != 1 {
					t.Fatalf("binding %d: %d cache entries, want 1", i, got.Stats.Cache.Entries)
				}
				if i > 0 {
					if !got.Stats.CacheHit {
						t.Fatalf("binding %d: expected a cache hit", i)
					}
					if got.Stats.Translate != 0 || got.Stats.Compile != 0 {
						t.Fatalf("binding %d: warm execution spent translate=%v compile=%v, want zero",
							i, got.Stats.Translate, got.Stats.Compile)
					}
				}
			}
		})
	}
}

// TestParamWarmStartsInMemoizedTier pins the acceptance behavior: once
// the adaptive engine has settled on a tier for the parameterized plan,
// a fresh binding starts there directly — cache hit, no translation, no
// compilation launched, and every pipeline finishing at or above the best
// compiled level on its handle (native where there is a back end).
func TestParamWarmStartsInMemoizedTier(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 3, Mode: ModeAdaptive, Cost: Native(),
		CacheBytes: 8 << 20, MorselSize: 64})
	run := func(v int64, c byte) *Result {
		res, err := e.RunPlanOpts(ctx,
			paramFilterPlan(expr.ParamRef(0, expr.TDec(2)), expr.ParamRef(1, expr.TChar)),
			"param", RunOpts{Params: []*expr.Const{
				expr.Dec(v, 2).(*expr.Const), expr.Ch(c).(*expr.Const)}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Warm until the controller stops launching compilations.
	var warm *Result
	for i := 0; i < 10; i++ {
		warm = run(int64(1000*i), "OFP"[i%3])
		if i > 0 && warm.Stats.Compilations == 0 {
			break
		}
	}
	if warm.Stats.Compilations != 0 {
		t.Fatalf("plan never settled: %d compilations still launched", warm.Stats.Compilations)
	}
	// A fresh, never-seen binding must start in the memoized state.
	var mu sync.Mutex
	handles := map[int]*Handle{}
	e.morselHook = func(pipeline int, h *Handle, _ int) {
		mu.Lock()
		handles[pipeline] = h
		mu.Unlock()
	}
	fresh := run(77777, 'F')
	if !fresh.Stats.CacheHit {
		t.Fatal("fresh binding missed the cache")
	}
	if fresh.Stats.Translate != 0 || fresh.Stats.Compile != 0 {
		t.Fatalf("fresh binding spent translate=%v compile=%v, want zero",
			fresh.Stats.Translate, fresh.Stats.Compile)
	}
	if fresh.Stats.Compilations != 0 {
		t.Fatalf("fresh binding launched %d compilations, want 0 (memoized tier)", fresh.Stats.Compilations)
	}
	native := 0
	for i, lvl := range fresh.Stats.FinalLevels {
		best := LevelBytecode
		if h := handles[i]; h != nil && h.Level() == LevelNative {
			best = LevelNative
			native++
		}
		if lvl < best {
			t.Errorf("pipeline %d finished at %v below the %v on its handle", i, lvl, best)
		}
	}
	if asm.Supported() && native == 0 {
		t.Error("no pipeline has native code on its handle after the warm-up")
	}
}

// TestBindParamsErrors checks the binding validation surface: wrong
// arity, nil values, and type mismatches fail cleanly, before any
// execution state is touched.
func TestBindParamsErrors(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 1, Mode: ModeBytecode})
	node := func() plan.Node {
		return paramFilterPlan(expr.ParamRef(0, expr.TDec(2)), expr.ParamRef(1, expr.TChar))
	}
	dec := expr.Dec(100, 2).(*expr.Const)
	ch := expr.Ch('O').(*expr.Const)
	cases := map[string][]*expr.Const{
		"too-few":   {dec},
		"too-many":  {dec, ch, dec},
		"nil-value": {dec, nil},
		"bad-type":  {dec, expr.Int(7).(*expr.Const)},
		"none":      nil,
	}
	for name, args := range cases {
		if _, err := e.RunPlanOpts(ctx, node(), "param", RunOpts{Params: args}); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// And the happy path still runs.
	if _, err := e.RunPlanOpts(ctx, node(), "param", RunOpts{Params: []*expr.Const{dec, ch}}); err != nil {
		t.Errorf("valid bindings failed: %v", err)
	}
}
