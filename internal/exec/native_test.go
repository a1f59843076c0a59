package exec

import (
	"fmt"
	"sync"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/jit"
	"aqe/internal/tpch"
)

// TestNativeStaticMode runs the stress plan in ModeNative and checks the
// tier-6 counters: on platforms with a backend the pipelines assemble and
// execute native code; elsewhere every pipeline silently stays in
// bytecode. Results must match bytecode either way.
func TestNativeStaticMode(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	e := New(Options{Workers: 2, Mode: ModeNative, Cost: Native()})
	res, err := e.RunPlan(stressPlan(), "native")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
		t.Error("native mode result diverged from bytecode")
	}
	st := res.Stats
	if asm.Supported() {
		if st.Compilations == 0 {
			t.Errorf("no native compilations on a supported platform: %+v", st)
		}
		if st.NativeMorsels == 0 {
			t.Errorf("no morsels executed natively: %+v", st)
		}
	} else if st.NativeFallbacks == 0 {
		t.Errorf("unsupported platform recorded no fallbacks: %+v", st)
	}
	if int64(st.Compilations)+st.NativeFallbacks == 0 {
		t.Error("ModeNative neither compiled natively nor fell back")
	}
}

// TestNativeGracefulDegradation simulates executable-memory allocation
// failure (and doubles as the no-backend-GOARCH test elsewhere): a
// ModeNative query must complete silently in bytecode with one fallback
// counted per pipeline and no morsel ever executing native code.
func TestNativeGracefulDegradation(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	e := New(Options{Workers: 2, Mode: ModeNative, Cost: Native()})
	res, err := e.RunPlan(stressPlan(), "degraded")
	if err != nil {
		t.Fatalf("ModeNative did not degrade gracefully: %v", err)
	}
	if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
		t.Error("degraded result diverged from bytecode")
	}
	st := res.Stats
	if st.NativeFallbacks != int64(st.Pipelines) {
		t.Errorf("%d fallbacks recorded under forced alloc failure for %d pipelines", st.NativeFallbacks, st.Pipelines)
	}
	if st.NativeMorsels != 0 {
		t.Errorf("%d morsels ran natively despite alloc failure", st.NativeMorsels)
	}
	for i, l := range st.FinalLevels {
		if l != LevelBytecode {
			t.Errorf("pipeline %d finished in tier %v despite alloc failure", i, l)
		}
	}
}

// TestAdaptiveNeverRunsOptimized: optimized code is a static baseline
// only, the flavour of machine code a ModeOptimized engine assembles
// (Engine.tier). Every variant an adaptive engine stages — under either
// cost model, free to climb with every compilation costing nothing — and
// every one a ModeNative engine stages is unoptimized; every one a
// ModeOptimized engine stages is optimized.
func TestAdaptiveNeverRunsOptimized(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		cost *CostModel
		want jit.Level
	}{
		{"adaptive paper", ModeAdaptive, Paper(), jit.Unoptimized},
		{"adaptive native", ModeAdaptive, Native(), jit.Unoptimized},
		{"ModeNative", ModeNative, Native(), jit.Unoptimized},
		{"ModeOptimized", ModeOptimized, Native(), jit.Optimized},
	} {
		cost := tc.cost
		cost.nativeBase, cost.nativePerInstr = 0, 0
		cost.optBase, cost.optPerInstr, cost.optCubic = 0, 0, 0
		e := New(Options{Workers: 2, Mode: tc.mode, Cost: cost, MorselSize: 32})
		var mu sync.Mutex
		handles := map[int]*Handle{}
		e.morselHook = func(pipeline int, h *Handle, _ int) {
			mu.Lock()
			handles[pipeline] = h
			mu.Unlock()
		}
		if _, err := e.RunPlan(stressPlan(), tc.name); err != nil {
			t.Fatal(err)
		}
		staged := 0
		for p, h := range handles {
			if c := h.native.Load(); c != nil {
				staged++
				if c.Level != tc.want {
					t.Errorf("%s: pipeline %d staged %v machine code, want %v", tc.name, p, c.Level, tc.want)
				}
			}
		}
		// Without simulated latency pipelines are assembled before their
		// first morsel: by the start rule, or up front.
		if asm.Supported() && !cost.simulate && staged == 0 {
			t.Errorf("%s: no pipeline staged machine code", tc.name)
		}
	}
}

// TestNativeAdaptiveDegradation: the start rule assembles every pipeline of
// more than one morsel, assembly fails for want of executable memory, and
// the pipeline starts in bytecode with native code ruled out on its handle, so
// the controller climbs what is left — exactly one fallback per such
// pipeline, none for the pipeline the rule leaves alone.
func TestNativeAdaptiveDegradation(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; nothing is assembled here")
	}
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	const morsel = 64
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: Native(), MorselSize: morsel, Trace: true})
	var mu sync.Mutex
	handles := map[int]*Handle{}
	e.morselHook = func(pipeline int, h *Handle, _ int) {
		mu.Lock()
		handles[pipeline] = h
		mu.Unlock()
	}
	res, err := e.RunPlan(stressPlan(), "adaptive-degraded")
	if err != nil {
		t.Fatalf("adaptive query failed under native alloc failure: %v", err)
	}
	if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
		t.Fatal("adaptive degraded result diverged from bytecode")
	}
	gated := int64(0)
	for p, pt := range pipeTraces(res.Trace) {
		tried := pt.work > morsel
		if tried {
			gated++
		}
		if off := handles[p].NativeOff(); off != tried {
			t.Errorf("pipeline %d (work %d): native ruled out = %v, want %v", p, pt.work, off, tried)
		}
		if pt.first != LevelBytecode || pt.starts != 0 {
			t.Errorf("pipeline %d: first morsel at %v, %d native installs; want a bytecode start", p, pt.first, pt.starts)
		}
	}
	st := res.Stats
	if gated != 2 || st.NativeFallbacks != gated {
		t.Errorf("%d fallbacks for %d pipelines of more than one morsel, want 2 and 2", st.NativeFallbacks, gated)
	}
	if st.NativeMorsels != 0 || st.Compilations != 0 {
		t.Errorf("%d native morsels, %d compilations despite alloc failure", st.NativeMorsels, st.Compilations)
	}
}

// TestNoNativeNeverDispatchesNative: an engine with native code ruled out
// (Engine.nativeOff) never runs a morsel in native code, cold or warm. The
// plan fingerprint does not tell such an engine apart — its cache is its
// own, and every handle's nativeOff keeps native code out of the
// controller's reach.
func TestNoNativeNeverDispatchesNative(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	cost := Native()
	cost.nativeBase, cost.nativePerInstr = 0, 0
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost,
		MorselSize: 32, CacheBytes: 1 << 20})
	e.nativeOff = true
	e.morselHook = func(_ int, h *Handle, _ int) {
		if h.Level() == LevelNative {
			t.Error("a handle of a native-off engine is at the native level")
		}
	}
	for run := 0; run < 4; run++ {
		res, err := e.RunPlan(stressPlan(), "no-native")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
			t.Fatal("result diverged from bytecode")
		}
		if res.Stats.CacheHit != (run > 0) {
			t.Errorf("run %d: cache hit = %v", run, res.Stats.CacheHit)
		}
		if st := res.Stats; st.NativeMorsels != 0 || st.Compilations != 0 {
			t.Errorf("run %d: %d native morsels, %d compilations", run, st.NativeMorsels, st.Compilations)
		}
	}
}

// TestDisabledLevels drives every source of a handle's nativeOff through
// a static mode, where what happens is deterministic: the engine's seed
// (the mode, the platform, or a test) and the run-time flag a failed
// compilation sets. In every row every handle ends with native code ruled
// out, every pipeline finishes in bytecode, a compiled mode counts one
// fallback per pipeline, and the rows are those of ModeBytecode. Both
// compiled modes — native and optimized code — fall back the same way. The
// deprecated ModeVector is ModeBytecode: every pipeline runs bytecode.
func TestDisabledLevels(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mode      Mode
		noNative  bool // set Engine.nativeOff after New
		allocFail bool
		skip      bool
	}{
		{name: "NoNative", mode: ModeNative, noNative: true},
		{name: "NoNative ModeOptimized", mode: ModeOptimized, noNative: true},
		{name: "alloc failure", mode: ModeNative, allocFail: true},
		{name: "alloc failure ModeOptimized", mode: ModeOptimized, allocFail: true},
		{name: "ModeVector", mode: ModeVector},
		{name: "ModeIRInterp", mode: ModeIRInterp},
		{name: "unsupported platform", mode: ModeNative, skip: asm.Supported()},
		{name: "unsupported platform ModeOptimized", mode: ModeOptimized, skip: asm.Supported()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("this platform has a native backend")
			}
			ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
			if err != nil {
				t.Fatal(err)
			}
			e := New(Options{Workers: 2, Mode: tc.mode, Cost: Native()})
			compiled := tc.mode.level() == LevelNative
			if seed := !compiled || !asm.Supported(); e.nativeOff != seed {
				t.Errorf("engine seed nativeOff = %v, want %v", e.nativeOff, seed)
			}
			if tc.noNative {
				e.nativeOff = true
			}
			var mu sync.Mutex
			handles := map[int]*Handle{}
			e.morselHook = func(pipeline int, h *Handle, _ int) {
				mu.Lock()
				handles[pipeline] = h
				mu.Unlock()
			}
			asm.SetAllocFailure(tc.allocFail)
			defer asm.SetAllocFailure(false)
			res, err := e.RunPlan(stressPlan(), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(canon(res.Rows, res.Types)) != fmt.Sprint(canon(ref.Rows, ref.Types)) {
				t.Error("rows differ from ModeBytecode")
			}
			st := res.Stats
			if len(handles) != len(st.FinalLevels) {
				t.Fatalf("saw %d of %d pipelines run", len(handles), len(st.FinalLevels))
			}
			for i, h := range handles {
				if !h.NativeOff() {
					t.Errorf("pipeline %d: native code not ruled out", i)
				}
				if st.FinalLevels[i] != LevelBytecode {
					t.Errorf("pipeline %d: finished at %v, want bytecode", i, st.FinalLevels[i])
				}
			}
			fallbacks := int64(0)
			if compiled {
				fallbacks = int64(len(handles))
			}
			if st.NativeFallbacks != fallbacks {
				t.Errorf("NativeFallbacks = %d, want %d", st.NativeFallbacks, fallbacks)
			}
			if st.NativeMorsels != 0 {
				t.Errorf("%d machine-code morsels with native code ruled out everywhere", st.NativeMorsels)
			}
		})
	}
}

// TestStaticNativeTranslatesNothing: a static compiled mode translates only
// the pipelines it runs in bytecode, and traces its module install only if
// some pipeline runs native code. A cold ModeNative run whose pipelines
// all assemble books no translation and no fused ops, and leaves no
// bytecode program on any handle; a run with native code ruled out traces
// no EvNative event.
func TestStaticNativeTranslatesNothing(t *testing.T) {
	run := func(nativeOff bool) (*Result, map[int]*Handle) {
		e := New(Options{Workers: 2, Mode: ModeNative, Cost: Native(), Trace: true})
		if nativeOff {
			e.nativeOff = true
		}
		var mu sync.Mutex
		handles := map[int]*Handle{}
		e.morselHook = func(pipeline int, h *Handle, _ int) {
			mu.Lock()
			handles[pipeline] = h
			mu.Unlock()
		}
		res, err := e.RunPlan(stressPlan(), "static")
		if err != nil {
			t.Fatal(err)
		}
		return res, handles
	}
	if asm.Supported() {
		res, handles := run(false)
		st := res.Stats
		if st.Translate != 0 || st.FusedOps != 0 || st.RegFileBytes != 0 {
			t.Errorf("Translate %v, FusedOps %d, RegFileBytes %d; want none", st.Translate, st.FusedOps, st.RegFileBytes)
		}
		for p, h := range handles {
			if h.prog != nil {
				t.Errorf("pipeline %d: holds a bytecode program it never ran", p)
			}
			if st.FinalLevels[p] != LevelNative {
				t.Errorf("pipeline %d: finished at %v", p, st.FinalLevels[p])
			}
		}
	}
	res, _ := run(true)
	for _, ev := range res.Trace.Events() {
		if ev.Kind == EvNative {
			t.Errorf("native install traced at %v..%v with native code ruled out", ev.Start, ev.End)
		}
	}
	if res.Stats.Translate == 0 {
		t.Error("pipelines ran bytecode without a translation booked")
	}
}

// TestIRInterpTranslatesNothing: ModeIRInterp interprets the IR of every
// pipeline and runs no bytecode, so it translates nothing: a cold run books
// no translation, no fused ops and no register file.
func TestIRInterpTranslatesNothing(t *testing.T) {
	res, err := New(Options{Workers: 2, Mode: ModeIRInterp}).RunPlan(stressPlan(), "interp")
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Translate != 0 || st.FusedOps != 0 || st.RegFileBytes != 0 {
		t.Errorf("Translate %v, FusedOps %d, RegFileBytes %d; want none", st.Translate, st.FusedOps, st.RegFileBytes)
	}
}

// TestPromotionIsFinal: a pipeline the controller promotes to native code
// stays there, as in the paper's controller. The 22 queries run under the
// climb policy — simulate with every latency zero, so no pipeline starts
// native and each one the controller evaluates climbs through promote —
// and once a handle is seen at native after a morsel, it is never seen at
// bytecode after a later one. The level is read under the lock that orders
// the observations, so a bytecode reading is a move back, never a reading
// made before the promotion. No pipeline falls back.
func TestPromotionIsFinal(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native back end: the controller never promotes")
	}
	cat := tpch.Gen(0.01)
	cost := Native()
	cost.nativeBase, cost.nativePerInstr = 0, 0
	cost.simulate = true
	for _, w := range []int{1, 2} {
		e := New(Options{Workers: w, Cost: cost})
		var mu sync.Mutex
		native := map[*Handle]bool{}
		var query int
		e.morselHook = func(pipeline int, h *Handle, _ int) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case h.Level() == LevelNative:
				native[h] = true
			case native[h]:
				t.Errorf("workers %d: Q%d pipeline %d left native code", w, query, pipeline)
				native[h] = false // one report per move back
			}
		}
		for qn := 1; qn <= 22; qn++ {
			mu.Lock()
			query = qn
			mu.Unlock()
			res, err := e.Run(tpch.Query(cat, qn))
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Stats.NativeFallbacks; n != 0 {
				t.Errorf("workers %d: Q%d: %d native fallbacks", w, qn, n)
			}
		}
		if len(native) == 0 {
			t.Errorf("workers %d: no pipeline was promoted to native code", w)
		}
	}
}
