package exec

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// grantT is a scan long enough that Paper() costs promote it: 1M rows.
var grantT = sync.OnceValue(func() *storage.Table {
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < 1<<20; i++ {
		v.AppendInt64(int64(i % 1000))
	}
	return storage.NewTable("grant", v)
})

// TestCompileHoldsAGrant: the controller's compilation holds one of the
// query's workers for its modeled latency, as Fig. 7 assumes — the worker
// that decided to compile does the compiling, and the other w-1 run on. A
// 2-worker Paper() scan on a 2-worker pool therefore has at most one
// morsel in flight while its native code is compiled, and at least one
// runs during the compile.
func TestCompileHoldsAGrant(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native back end: the controller never compiles")
	}
	e := New(Options{Workers: 2, PoolWorkers: 2, Cost: Paper(),
		MorselSize: 1024, MorselCap: 1024, Trace: true})
	s := plan.NewScan(grantT(), "v")
	sch := s.Schema()
	s.Where(expr.Gt(plan.C(sch, "v"), expr.Int(10)))
	res, err := e.RunPlan(plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.Sum, Arg: plan.C(sch, "v"), Name: "s"},
	}), "grant")
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Trace.Events()
	var compile *Event
	var morsels []Event
	for i, ev := range evs {
		switch {
		case ev.Kind == EvMorsel:
			morsels = append(morsels, ev)
		case ev.Kind == EvNative && len(morsels) > 0:
			compile = &evs[i]
		}
	}
	if compile == nil {
		t.Fatalf("the controller never compiled the scan (%d morsels)", len(morsels))
	}
	// The morsels in flight during the compile, clipped to it, by start.
	var during []Event
	for _, ev := range morsels {
		if ev.Start < compile.End && ev.End > compile.Start {
			ev.Start, ev.End = max(ev.Start, compile.Start), min(ev.End, compile.End)
			during = append(during, ev)
		}
	}
	if len(during) == 0 {
		t.Fatalf("no morsel ran during the %v compile", compile.End-compile.Start)
	}
	t.Logf("a %v compile, %d morsels during it", compile.End-compile.Start, len(during))
	sort.Slice(during, func(i, j int) bool { return during[i].Start < during[j].Start })
	for i := 1; i < len(during); i++ {
		if prev := during[i-1]; during[i].Start < prev.End {
			t.Fatalf("morsels of workers %d and %d overlap during the compile [%v, %v): "+
				"[%v, %v) and [%v, %v)", prev.Worker, during[i].Worker, compile.Start, compile.End,
				prev.Start, prev.End, during[i].Start, during[i].End)
		}
	}
}

// TestTrapDuringCompile: a trap recorded while a worker sleeps out a
// modeled compile latency ends the query within a poll step of the sleep,
// not after the latency, and leaves no goroutine behind. Every probe row
// matches all 1024 build rows, so bytecode is slow enough for a 2 s
// compile to pay; row 64's match overflows the sum, eight morsels in,
// after the controller has started compiling.
func TestTrapDuringCompile(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native back end: the controller never compiles")
	}
	const latency = 2 * time.Second
	fk := storage.NewColumn("f_key", storage.Int64)
	for i := 0; i < 1024; i++ {
		fk.AppendInt64(0)
	}
	pk, px := storage.NewColumn("p_key", storage.Int64), storage.NewColumn("p_x", storage.Int64)
	for i := 0; i < 1<<18; i++ {
		pk.AppendInt64(0)
		x := int64(1)
		if i == 64 {
			x = math.MaxInt64 / 2
		}
		px.AppendInt64(x)
	}
	build := plan.NewScan(storage.NewTable("fan", fk), "f_key")
	probe := plan.NewScan(storage.NewTable("probe", pk, px), "p_key", "p_x")
	j := plan.NewJoin(plan.Inner, build, probe,
		[]expr.Expr{plan.C(build.Schema(), "f_key")},
		[]expr.Expr{plan.C(probe.Schema(), "p_key")}, nil)
	p := plan.NewGroupBy(j, nil, nil, []plan.AggExpr{
		{Func: plan.Sum, Arg: plan.C(j.Schema(), "p_x"), Name: "s"},
	})

	before := runtime.NumGoroutine()
	e := New(Options{Workers: 2, PoolWorkers: 2, MorselSize: 8, MorselCap: 8,
		Cost: &CostModel{nativeBase: latency, simulate: true}})
	// A compile is in flight when a goroutine sleeps out its latency. The
	// query's end is timed from the last morsel it ran, next to the trap,
	// not from its start: the build and probe before the trap take up to
	// 0.5 s under -race, while a compile the trap failed to end would add
	// its whole modeled latency after that morsel.
	var compiling atomic.Bool
	var lastMorsel atomic.Int64
	e.morselHook = func(int, *Handle, int) {
		lastMorsel.Store(time.Now().UnixNano())
		if compiling.Load() {
			return
		}
		buf := make([]byte, 1<<16)
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*queryRun).sleepCompile")) {
			compiling.Store(true)
		}
	}
	_, err := e.RunPlan(p, "trap")
	took := time.Since(time.Unix(0, lastMorsel.Load()))
	if trap := (*rt.Trap)(nil); !errors.As(err, &trap) || trap.Code != rt.TrapOverflow {
		t.Fatalf("got %v, want the overflow trap", err)
	}
	t.Logf("the trap ended the query after %v", took)
	if !compiling.Load() {
		t.Fatal("the trap came before the controller started compiling")
	}
	if took > latency/4 {
		t.Errorf("the trap took %v to end the query; the modeled latency is %v", took, latency)
	}
	for deadline := time.Now().Add(latency / 4); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the query, %d after it", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelDuringStaticCompile: a static compiled query cancelled while it
// sleeps out its modeled up-front compile ends within a poll step of the
// cancel, not after the latency — a static mode's compile sleeps through
// sleepCompile, like the controller's — reports itself cancelled and leaves
// no goroutine behind.
func TestCancelDuringStaticCompile(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native back end: a static compiled mode compiles nothing")
	}
	const latency = 2 * time.Second
	s := plan.NewScan(grantT(), "v")
	p := plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.Sum, Arg: plan.C(s.Schema(), "v"), Name: "s"},
	})
	before := runtime.NumGoroutine()
	e := New(Options{Workers: 2, PoolWorkers: 2, Mode: ModeOptimized,
		Cost: &CostModel{optBase: latency, simulate: true}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	res, err := e.RunPlanCtx(ctx, p, "static")
	took := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the deadline", err)
	}
	t.Logf("the cancel ended the query after %v", took)
	if res == nil || !res.Stats.Cancelled {
		t.Error("the cancelled query's Stats.Cancelled is not set")
	}
	if took > latency/4 {
		t.Errorf("the cancel took %v to end the query; the modeled latency is %v", took, latency)
	}
	for deadline := time.Now().Add(latency / 4); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the query, %d after it", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
