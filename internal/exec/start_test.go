package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// pipeTrace is what a trace says about one pipeline's run.
type pipeTrace struct {
	work     int64 // tuples dispatched: the work left after pruning
	first    Level // level of the morsel that started first
	bytecode int   // morsels run in bytecode
	starts   int   // coordinator native installs (the start rule's event)
}

func pipeTraces(tr *Trace) map[int]*pipeTrace {
	out := map[int]*pipeTrace{}
	at := func(p int) *pipeTrace {
		if out[p] == nil {
			out[p] = &pipeTrace{first: -1}
		}
		return out[p]
	}
	for _, ev := range tr.Events() { // sorted by start
		switch {
		case ev.Kind == EvMorsel:
			pt := at(ev.Pipeline)
			if pt.first < 0 {
				pt.first = ev.Level
			}
			if ev.Level == LevelBytecode {
				pt.bytecode++
			}
			pt.work += ev.Tuples
		case ev.Kind == EvNative && ev.Level == LevelNative && ev.Worker == -1 && at(ev.Pipeline).first < 0:
			at(ev.Pipeline).starts++
		}
	}
	return out
}

// prunedToOneMorselPlan scans 4096 rows of which zone maps leave the last
// 64-row block: many morsels of 64 before pruning, exactly one after.
func prunedToOneMorselPlan() plan.Node {
	a := storage.NewColumn("a", storage.Int64)
	s := storage.NewColumn("s", storage.String)
	for i := 0; i < 4096; i++ {
		a.AppendInt64(int64(i))
		s.AppendString("v")
	}
	tbl := storage.NewTable("edge", a, s)
	tbl.BuildZoneMaps(64)
	return countAll(tbl, func(sch []plan.ColDef) expr.Expr {
		return expr.Ge(plan.C(sch, "a"), expr.Int(4096-64))
	})
}

// TestStartRule pins the one decision of which level a pipeline's first
// morsel runs at (queryRun.start), from traces, without timing: where the
// rule is live — adaptive mode, real compile latencies, a native back end —
// a pipeline with more work than one initial morsel is assembled by the
// coordinator before its first morsel and never runs bytecode, and a
// pipeline of one morsel or less (after zone-map pruning) is not assembled;
// everywhere else every pipeline starts in bytecode. Rows are those of
// ModeBytecode throughout.
func TestStartRule(t *testing.T) {
	const morsel = 64
	simulated := Native()
	simulated.simulate = true
	simulated.nativeBase, simulated.nativePerInstr = 0, 0
	for _, tc := range []struct {
		name     string
		opts     Options
		noNative bool // rule native code out on every handle (Engine.nativeOff)
		plan     func() plan.Node
		live     bool // the rule applies (given a native back end)
		gated    int  // pipelines with more work than one morsel
		skip     bool
	}{
		{name: "cache off", opts: Options{Cost: Native()}, plan: stressPlan, live: true, gated: 2},
		{name: "cache on", opts: Options{Cost: Native(), CacheBytes: 8 << 20}, plan: stressPlan, live: true, gated: 2},
		{name: "pruned to one morsel", opts: Options{Cost: Native()}, plan: prunedToOneMorselPlan, live: true},
		{name: "Simulate", opts: Options{Cost: simulated}, plan: stressPlan, gated: 2},
		{name: "NoNative", opts: Options{Cost: Native()}, noNative: true, plan: stressPlan, gated: 2},
		{name: "ModeIRInterp", opts: Options{Cost: Native(), Mode: ModeIRInterp}, plan: stressPlan, gated: 2},
		{name: "unsupported platform", opts: Options{Cost: Native()}, plan: stressPlan, gated: 2,
			skip: asm.Supported()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("this platform has a native backend")
			}
			ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(tc.plan(), "ref")
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprint(canon(ref.Rows, ref.Types))
			live := tc.live && asm.Supported()
			tc.opts.Workers, tc.opts.MorselSize, tc.opts.Trace = 2, morsel, true
			e := New(tc.opts)
			if tc.noNative {
				e.nativeOff = true
			}
			runs := 1
			if tc.opts.CacheBytes > 0 {
				runs = 2 // the second finds the first's code on its handles
			}
			for run := 0; run < runs; run++ {
				res, err := e.RunPlan(tc.plan(), tc.name)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
					t.Error("rows differ from ModeBytecode")
				}
				st := res.Stats
				if len(res.Trace.Events()) == 0 || st.CacheHit != (run > 0) {
					t.Fatalf("run %d: %d trace events, cache hit %v", run, len(res.Trace.Events()), st.CacheHit)
				}
				gated, assembled := 0, int64(0)
				for p, pt := range pipeTraces(res.Trace) {
					big := pt.work > morsel
					if big {
						gated++
					}
					switch {
					case !live || !big:
						if pt.first != LevelBytecode || pt.starts != 0 {
							t.Errorf("pipeline %d (work %d): first morsel at %v after %d start assemblies, want bytecode and none",
								p, pt.work, pt.first, pt.starts)
						}
					case run == 0:
						assembled++
						if pt.bytecode != 0 || pt.starts != 1 {
							t.Errorf("pipeline %d (work %d): %d bytecode morsels, %d start assemblies, want 0 and 1",
								p, pt.work, pt.bytecode, pt.starts)
						}
					default:
						if pt.bytecode != 0 || pt.starts != 0 {
							t.Errorf("warm pipeline %d: %d bytecode morsels, %d start assemblies, want neither",
								p, pt.bytecode, pt.starts)
						}
					}
				}
				if gated != tc.gated {
					t.Fatalf("%d pipelines exceed one morsel, the row expects %d", gated, tc.gated)
				}
				if !live {
					if tc.opts.Cost.simulate {
						continue // the controller may compile later, on a measured rate
					}
					if st.NativeCompiles != 0 || st.NativeMorsels != 0 {
						t.Errorf("%d native compiles, %d native morsels without the level", st.NativeCompiles, st.NativeMorsels)
					}
					continue
				}
				// From native there is no way up: every compilation is a start
				// assembly, and its time is booked as compilation.
				if st.NativeCompiles != assembled || int64(st.Compilations) != assembled || st.NativeFallbacks != 0 {
					t.Errorf("run %d: %d native compiles, %d compilations, %d fallbacks; want %d, %d, 0",
						run, st.NativeCompiles, st.Compilations, st.NativeFallbacks, assembled, assembled)
				}
				if (st.Compile > 0) != (assembled > 0) {
					t.Errorf("run %d: Stats.Compile = %v with %d assemblies", run, st.Compile, assembled)
				}
			}
		})
	}
}

// TestExecMemoryReturns: every cold adaptive query maps executable memory
// for its assembled pipelines, and nothing but the collector unmaps it
// (ROADMAP 3(a)): once N cold queries and their engine are unreachable,
// collection brings the live-mapping counters back to where they started.
func TestExecMemoryReturns(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; nothing is ever mapped")
	}
	settle := func() asm.ExecMemStats {
		// A finalizer runs on the runtime's own goroutine some time after
		// the collection that found its object unreachable.
		var m asm.ExecMemStats
		for i := 0; i < 100; i++ {
			runtime.GC()
			runtime.GC()
			time.Sleep(time.Millisecond)
			n := asm.ExecMemory()
			if n == m {
				break
			}
			m = n
		}
		return m
	}
	start := settle()
	func() {
		e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), MorselSize: 64})
		var compiles int64
		for i := 0; i < 8; i++ {
			res, err := e.RunPlan(stressPlan(), "cold")
			if err != nil {
				t.Fatal(err)
			}
			compiles += res.Stats.NativeCompiles
		}
		if compiles != 16 {
			t.Fatalf("%d assemblies over 8 cold queries, want 2 each", compiles)
		}
	}()
	if end := settle(); end != start {
		t.Errorf("executable memory after collection: %+v, want the starting %+v", end, start)
	}
}
