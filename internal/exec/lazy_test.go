package exec

import (
	"fmt"
	"sync"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/volcano"
)

// The adaptive mode translates a pipeline to bytecode only when it is to
// run there (queryRun.start); these tests pin when that happens, each
// checking the rows against Volcano.

// runLazy runs the plan on e and returns the result with the handle of
// every pipeline that dispatched a morsel.
func runLazy(t *testing.T, e *Engine, build func() plan.Node) (*Result, map[int]*Handle) {
	t.Helper()
	var mu sync.Mutex
	handles := map[int]*Handle{}
	e.morselHook = func(pipeline int, h *Handle, _ int) {
		mu.Lock()
		handles[pipeline] = h
		mu.Unlock()
	}
	res, err := e.RunPlan(build(), "lazy")
	if err != nil {
		t.Fatal(err)
	}
	node := build()
	want, err := volcano.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(canon(res.Rows, res.Types)), fmt.Sprint(canon(want, typesOf(node.Schema()))); got != want {
		t.Fatalf("rows differ from Volcano:\n got %s\nwant %s", got, want)
	}
	return res, handles
}

// TestNativeStartTranslatesNothing: a cold adaptive run whose pipelines
// all start in native code translates none of them.
func TestNativeStartTranslatesNothing(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native back end: every pipeline starts in bytecode")
	}
	// A join without a grouped tail: the 800-row build and the 5000-row
	// probe are both longer than one morsel.
	join := func() plan.Node {
		c := plan.NewScan(custT, "c_id", "c_seg")
		o := plan.NewScan(ordersT, "o_cust", "o_total")
		return plan.NewJoin(plan.Inner, c, o,
			[]expr.Expr{plan.C(c.Schema(), "c_id")},
			[]expr.Expr{plan.C(o.Schema(), "o_cust")},
			[]string{"c_seg"})
	}
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), MorselSize: 64})
	res, handles := runLazy(t, e, join)
	st := res.Stats
	if st.Compilations != st.Pipelines || len(handles) != st.Pipelines {
		t.Fatalf("%d start assemblies, %d of %d pipelines ran; want every pipeline started native",
			st.Compilations, len(handles), st.Pipelines)
	}
	for p, h := range handles {
		if h.prog != nil {
			t.Errorf("pipeline %d started in native code and was translated", p)
		}
	}
	if st.FusedOps != 0 || st.RegFileBytes != 0 {
		t.Errorf("FusedOps %d, RegFileBytes %d: bytecode stats without bytecode", st.FusedOps, st.RegFileBytes)
	}
}

// TestFailedNativeStartTranslates: when native assembly fails at a
// pipeline's start, the pipeline is translated there and runs to the end
// in bytecode.
func TestFailedNativeStartTranslates(t *testing.T) {
	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), MorselSize: 64})
	res, handles := runLazy(t, e, stressPlan)
	for p, h := range handles {
		if h.prog == nil {
			t.Errorf("pipeline %d ran without a bytecode program", p)
		}
	}
	for p, l := range res.Stats.FinalLevels {
		if l != LevelBytecode {
			t.Errorf("pipeline %d finished at %v, want bytecode", p, l)
		}
	}
	if res.Stats.NativeMorsels != 0 || res.Stats.FusedOps == 0 {
		t.Errorf("%d native morsels, %d fused ops; want none and the translated programs'",
			res.Stats.NativeMorsels, res.Stats.FusedOps)
	}
}

// TestWarmRunReusesLazyTranslation: a program translated at a pipeline's
// start goes to the plan cache, so a warm rerun translates nothing.
func TestWarmRunReusesLazyTranslation(t *testing.T) {
	// With 1024-tuple morsels the 800-row build and the 3-group tail start
	// in bytecode, the 5000-row probe in native code where there is a back
	// end.
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), MorselSize: 1024, CacheBytes: 8 << 20})
	cold, handles := runLazy(t, e, stressPlan)
	if cold.Stats.CacheHit || handles[0] == nil || handles[0].prog == nil {
		t.Fatal("the cold run did not translate its build pipeline")
	}
	warm, _ := runLazy(t, e, stressPlan)
	if !warm.Stats.CacheHit || warm.Stats.Translate != 0 {
		t.Errorf("warm run: cache hit %v, Translate %v; want a hit and no translation",
			warm.Stats.CacheHit, warm.Stats.Translate)
	}
	if warm.Stats.FusedOps != cold.Stats.FusedOps {
		t.Errorf("warm run adopted programs with %d fused ops, the cold run translated %d",
			warm.Stats.FusedOps, cold.Stats.FusedOps)
	}
}

// TestPaperStartsInBytecode: under Paper() costs every pipeline's first
// morsel runs in bytecode, translated at the pipeline's start.
func TestPaperStartsInBytecode(t *testing.T) {
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Paper(), MorselSize: 64, Trace: true})
	res, handles := runLazy(t, e, stressPlan)
	traces := pipeTraces(res.Trace)
	if len(traces) != res.Stats.Pipelines {
		t.Fatalf("%d of %d pipelines traced", len(traces), res.Stats.Pipelines)
	}
	for p, pt := range traces {
		if pt.first != LevelBytecode {
			t.Errorf("pipeline %d: first morsel at %v, want bytecode", p, pt.first)
		}
		if h := handles[p]; h == nil || h.prog == nil {
			t.Errorf("pipeline %d ran in bytecode without a program on its handle", p)
		}
	}
}
