package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/plan"
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
		if st.NativeCompiles == 0 {
			t.Errorf("no native compilations on a supported platform: %+v", st)
		}
		if st.NativeMorsels == 0 {
			t.Errorf("no morsels executed natively: %+v", st)
		}
	} else if st.NativeFallbacks == 0 {
		t.Errorf("unsupported platform recorded no fallbacks: %+v", st)
	}
	if st.NativeCompiles+st.NativeFallbacks == 0 {
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
// only. The adaptive seed holds LevelOptimized on every handle under
// either cost model, so neither the start rule nor the controller — here
// free to climb, with every compilation costing nothing — ever installs it.
func TestAdaptiveNeverRunsOptimized(t *testing.T) {
	for name, cost := range map[string]*CostModel{"paper": Paper(), "native": Native()} {
		cost.NativeBase, cost.NativePerInstr = 0, 0
		cost.OptBase, cost.OptPerInstr, cost.OptCubic = 0, 0, 0
		e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: cost, MorselSize: 32})
		if !e.disabled.has(LevelOptimized) {
			t.Errorf("%s: adaptive seed %04b leaves LevelOptimized enabled", name, e.disabled)
		}
		var installed atomic.Int32
		e.morselHook = func(_ int, h *Handle, _ int) {
			if l := h.Level(); l == LevelOptimized {
				installed.Store(int32(l))
			}
		}
		res, err := e.RunPlan(stressPlan(), name)
		if err != nil {
			t.Fatal(err)
		}
		if l := Level(installed.Load()); l != LevelBytecode {
			t.Errorf("%s: a pipeline ran at %v", name, l)
		}
		for i, l := range res.Stats.FinalLevels {
			if l == LevelOptimized {
				t.Errorf("%s: pipeline %d finished at %v", name, i, l)
			}
		}
	}
}

// TestNativeAdaptiveDegradation: the start rule assembles every pipeline of
// more than one morsel, assembly fails for want of executable memory, and
// the pipeline starts in bytecode with the level disabled on its handle, so
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
		if off := handles[p].Disabled().has(LevelNative); off != tried {
			t.Errorf("pipeline %d (work %d): native disabled = %v, want %v", p, pt.work, off, tried)
		}
		if pt.first != LevelBytecode || pt.starts != 0 {
			t.Errorf("pipeline %d: first morsel at %v, %d native installs; want a bytecode start", p, pt.first, pt.starts)
		}
	}
	st := res.Stats
	if gated != 2 || st.NativeFallbacks != gated {
		t.Errorf("%d fallbacks for %d pipelines of more than one morsel, want 2 and 2", st.NativeFallbacks, gated)
	}
	if st.NativeMorsels != 0 || st.NativeCompiles != 0 {
		t.Errorf("%d native morsels, %d native compiles despite alloc failure", st.NativeMorsels, st.NativeCompiles)
	}
}

// TestNoNativeNeverDispatchesNative: a NoNative engine never runs a morsel
// in native code, cold or warm. The plan fingerprint no longer tells such
// an engine apart — its cache is its own, and the disabled-levels mask of
// every handle keeps the level out of the controller's choices.
func TestNoNativeNeverDispatchesNative(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost, NoNative: true,
		MorselSize: 32, CacheBytes: 1 << 20})
	e.morselHook = func(_ int, h *Handle, _ int) {
		if h.Level() == LevelNative {
			t.Error("a handle of a NoNative engine is at the native level")
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
		if st := res.Stats; st.NativeMorsels != 0 || st.NativeCompiles != 0 {
			t.Errorf("run %d: %d native morsels, %d native compiles", run, st.NativeMorsels, st.NativeCompiles)
		}
	}
}

// semiResidualPlan has one pipeline the vectorized engine rejects — a semi
// join probe with a residual — behind one it accepts (the build).
func semiResidualPlan() plan.Node {
	o := plan.NewScan(ordersT, "o_cust", "o_total")
	c := plan.NewScan(custT, "c_id", "c_bal")
	j := plan.NewJoin(plan.Semi, o, c,
		[]expr.Expr{plan.C(o.Schema(), "o_cust")},
		[]expr.Expr{plan.C(c.Schema(), "c_id")}, nil)
	comb := j.CombinedSchema()
	return j.WithResidual(expr.Gt(plan.C(comb, "o_total"), plan.C(comb, "c_bal")))
}

// TestDisabledLevels drives every source of the disabled-levels mask
// through a static mode, where what happens is deterministic: the engine's
// seed (mode, options, platform), the per-pipeline seed (no kernel for the
// shape) and the run-time bit a failed compilation sets. In every row a
// pipeline whose target level is disabled must finish in bytecode, a
// machine-code level given up must be counted once per pipeline, and the
// rows must be those of ModeBytecode. Both machine-code levels — native
// and optimized code — fall back the same way.
func TestDisabledLevels(t *testing.T) {
	native, opt, vec := maskOf(LevelNative), maskOf(LevelOptimized), maskOf(LevelVector)
	platform := levelMask(0)
	if !asm.Supported() {
		platform = machineCode
	}
	for _, tc := range []struct {
		name      string
		opts      Options
		plan      func() plan.Node
		allocFail bool
		skip      bool
		seed      levelMask // the engine's seed, beyond the mode's and the platform's
		every     levelMask // disabled on every handle when the run ends, beyond the seed
		some      levelMask // disabled on some handles but not all
	}{
		{name: "NoNative", opts: Options{Mode: ModeNative, NoNative: true}, plan: stressPlan,
			seed: machineCode, every: native},
		{name: "NoNative ModeOptimized", opts: Options{Mode: ModeOptimized, NoNative: true}, plan: stressPlan,
			seed: machineCode, every: opt},
		{name: "NoVector", opts: Options{Mode: ModeVector, NoVector: true}, plan: stressPlan,
			seed: vec, every: vec},
		{name: "alloc failure", opts: Options{Mode: ModeNative}, plan: stressPlan, allocFail: true,
			every: native},
		{name: "alloc failure ModeOptimized", opts: Options{Mode: ModeOptimized}, plan: stressPlan, allocFail: true,
			every: opt},
		{name: "vector-ineligible shape", opts: Options{Mode: ModeVector}, plan: semiResidualPlan,
			some: vec},
		{name: "ModeIRInterp", opts: Options{Mode: ModeIRInterp}, plan: stressPlan},
		{name: "unsupported platform", opts: Options{Mode: ModeNative}, plan: stressPlan,
			skip: asm.Supported(), every: native},
		{name: "unsupported platform ModeOptimized", opts: Options{Mode: ModeOptimized}, plan: stressPlan,
			skip: asm.Supported(), every: opt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("this platform has a native backend")
			}
			ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(tc.plan(), "ref")
			if err != nil {
				t.Fatal(err)
			}
			tc.opts.Workers, tc.opts.Cost = 2, Native()
			e := New(tc.opts)
			ruled := platform | allLevels&^tc.opts.Mode.levels()
			if e.disabled != tc.seed|ruled {
				t.Errorf("engine seed %04b, want %04b", e.disabled, tc.seed|ruled)
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
			res, err := e.RunPlan(tc.plan(), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(canon(res.Rows, res.Types)) != fmt.Sprint(canon(ref.Rows, ref.Types)) {
				t.Error("rows differ from ModeBytecode")
			}
			st, target := res.Stats, tc.opts.Mode.level()
			var union levelMask
			intersection, fallbacks := allLevels, int64(0)
			for i, h := range handles {
				m := h.Disabled()
				union, intersection = union|m, intersection&m
				want := target
				if m.has(target) {
					want = LevelBytecode
					if machineCode.has(target) {
						fallbacks++
					}
				}
				if st.FinalLevels[i] != want {
					t.Errorf("pipeline %d: disabled %04b, finished at %v, want %v", i, m, st.FinalLevels[i], want)
				}
			}
			if len(handles) != len(st.FinalLevels) {
				t.Fatalf("saw %d of %d pipelines run", len(handles), len(st.FinalLevels))
			}
			if want := (tc.every | tc.seed) &^ ruled; intersection&^ruled != want {
				t.Errorf("disabled on every handle: %04b, want %04b", intersection&^ruled, want)
			}
			if got := (union &^ intersection); got != tc.some {
				t.Errorf("disabled on some handles only: %04b, want %04b", got, tc.some)
			}
			if st.NativeFallbacks != fallbacks {
				t.Errorf("NativeFallbacks = %d, want %d", st.NativeFallbacks, fallbacks)
			}
			if intersection&machineCode == machineCode && st.NativeMorsels != 0 {
				t.Errorf("%d machine-code morsels with both levels disabled everywhere", st.NativeMorsels)
			}
			if intersection.has(LevelVector) && st.VectorMorsels != 0 {
				t.Errorf("%d vector morsels with the engine disabled everywhere", st.VectorMorsels)
			}
		})
	}
}

// TestNativeDemotion: the controller must demote a pipeline out of native
// code when its measured morsel rate falls far short of what the cost
// model predicted at promotion time. Only a level the controller climbed to
// has such a prediction, and with real latencies pipelines start native
// (start), so this runs the climb policy: Simulate, with every latency zero.
// An absurd SpeedupNative makes any
// real pipeline underperform its prediction, so promotion is always
// followed by demotion: the pipeline goes back to the level it left, the
// native level — and the vectorized engine where the model ranks it below
// — is disabled on its handle, NativeFallbacks ticks, and the trace holds
// exactly one demotion event for it.
func TestNativeDemotion(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; the controller never proposes tier 6 here")
	}
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	cost.Simulate = true
	// Native code cannot possibly be 1e9x faster than bytecode: the
	// measured rate lands below verifyMargin of the prediction as soon as
	// the warmup evaluations pass.
	cost.SpeedupNative = 1e9
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost, MorselSize: 32, Trace: true})
	// Slow the morsel stream slightly so pipelines are still draining when
	// the background install + warmup evaluations complete; retry in case
	// a short pipeline still wins the race.
	var mu sync.Mutex
	var handles map[int]*Handle
	e.morselHook = func(pipeline int, h *Handle, _ int) {
		mu.Lock()
		handles[pipeline] = h
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
	promoted := int64(0)
	for attempt := 0; attempt < 25; attempt++ {
		handles = map[int]*Handle{}
		res, err := e.RunPlan(stressPlan(), "demote")
		if err != nil {
			t.Fatalf("adaptive query failed: %v", err)
		}
		if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
			t.Fatal("result diverged across promotion and demotion")
		}
		promoted += res.Stats.NativeCompiles
		if res.Stats.NativeFallbacks == 0 {
			continue
		}
		// Bytecode is the only level these pipelines can have left: with
		// every compile free, native's modeled speedup beats the rest from
		// the first evaluation on. An EvNative event whose level is not
		// native is a demotion.
		demotions := map[int]int{}
		for _, ev := range res.Trace.Events() {
			if ev.Kind == EvNative && ev.Level != LevelNative {
				demotions[ev.Pipeline]++
				if ev.Level != LevelBytecode {
					t.Errorf("pipeline %d: demotion landed at %v, want the level it left (bytecode)",
						ev.Pipeline, ev.Level)
				}
			}
		}
		total := 0
		for p, n := range demotions {
			total += n
			if n != 1 {
				t.Errorf("pipeline %d: %d demotion events, want exactly one", p, n)
			}
			// Native takes the vectorized engine along where the model
			// ranks it below — under this model, always — and optimized
			// code was never the adaptive mode's, so the pipeline stays
			// at the level whose rate was measured.
			if m := handles[p].Disabled(); m != allLevels.above(LevelBytecode) {
				t.Errorf("pipeline %d: demoted, yet its handle has only %04b disabled", p, m)
			}
			if l := res.Stats.FinalLevels[p]; l != LevelBytecode {
				t.Errorf("pipeline %d: finished at %v after its demotion", p, l)
			}
		}
		if int64(total) != res.Stats.NativeFallbacks {
			t.Errorf("%d demotion events for %d fallbacks", total, res.Stats.NativeFallbacks)
		}
		return
	}
	if promoted == 0 {
		t.Skip("controller never promoted to native on this machine; nothing to verify")
	}
	t.Errorf("native installed %d times but the controller never demoted", promoted)
}
