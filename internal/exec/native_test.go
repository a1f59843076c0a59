package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
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

// TestDisabledLevels drives every source of the disabled-levels mask
// through a static mode, where what happens is deterministic: the engine's
// seed (mode, options, platform) and the run-time bit a failed compilation
// sets. In every row a pipeline whose target level is disabled must finish
// in bytecode, a machine-code level given up must be counted once per
// pipeline, and the rows must be those of ModeBytecode. Both machine-code
// levels — native and optimized code — fall back the same way. The
// deprecated ModeVector is ModeBytecode: every pipeline runs bytecode.
func TestDisabledLevels(t *testing.T) {
	native, opt := maskOf(LevelNative), maskOf(LevelOptimized)
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
	}{
		{name: "NoNative", opts: Options{Mode: ModeNative, NoNative: true}, plan: stressPlan,
			seed: machineCode, every: native},
		{name: "NoNative ModeOptimized", opts: Options{Mode: ModeOptimized, NoNative: true}, plan: stressPlan,
			seed: machineCode, every: opt},
		{name: "alloc failure", opts: Options{Mode: ModeNative}, plan: stressPlan, allocFail: true,
			every: native},
		{name: "alloc failure ModeOptimized", opts: Options{Mode: ModeOptimized}, plan: stressPlan, allocFail: true,
			every: opt},
		{name: "ModeVector", opts: Options{Mode: ModeVector}, plan: stressPlan},
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
			if got := union &^ intersection; got != 0 {
				t.Errorf("disabled on some handles only: %04b, want none", got)
			}
			if st.NativeFallbacks != fallbacks {
				t.Errorf("NativeFallbacks = %d, want %d", st.NativeFallbacks, fallbacks)
			}
			if intersection&machineCode == machineCode && st.NativeMorsels != 0 {
				t.Errorf("%d machine-code morsels with both levels disabled everywhere", st.NativeMorsels)
			}
		})
	}
}

// TestNativeDemotion: the controller must demote a pipeline out of native
// code when its settled morsel rate falls below the rate measured at the
// level it left. Only a level the controller climbed to has such a rate,
// and with real latencies pipelines start native (start), so this runs the
// climb policy: Simulate, with every latency zero. A stall inside the timed
// dispatch of every native morsel makes native code measurably slower than
// bytecode, so promotion is always followed by demotion: the pipeline goes
// back to the level it left, native code alone is disabled on its handle,
// NativeFallbacks ticks, and the trace holds exactly one native demotion
// event for it.
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
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost, MorselSize: 32, Trace: true})
	// A 32-tuple morsel runs in microseconds at any level: stalled, a
	// native morsel is measured far below bytecode.
	e.dispatchHook = func(l Level) {
		if l == LevelNative {
			time.Sleep(200 * time.Microsecond)
		}
	}
	// Slow the morsel stream slightly, outside the timed window, so
	// pipelines are still draining when the background install + warmup
	// evaluations complete; retry in case a short pipeline still wins the
	// race.
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
		// Native code is always entered from bytecode. An EvNative event
		// whose level is not native is a demotion out of native code.
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
			// The demotion disables native code; optimized code was never
			// the adaptive mode's.
			if m, want := handles[p].Disabled(), maskOf(LevelOptimized, LevelNative); m != want {
				t.Errorf("pipeline %d: demoted, handle has %04b disabled, want %04b", p, m, want)
			}
			if l := res.Stats.FinalLevels[p]; l == LevelNative {
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

// TestVerifyKeepsFasterNative: verify compares measured with measured. A
// compute-dense pipeline whose native code runs several times faster than
// bytecode stays native even when the model promised far more: with
// SpeedupNative at 1e9, a level held to a modeled prediction is demoted in
// every run.
func TestVerifyKeepsFasterNative(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; the controller never proposes tier 6 here")
	}
	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	cost.Simulate = true
	cost.SpeedupNative = 1e9
	if outcomes := keepNative(t, cost, nil); outcomes != nil {
		t.Errorf("native code faster than bytecode was demoted in every run: %v", outcomes)
	}
}

// TestVerifyDecidesOnce: verify compares a promoted level with the level
// it left once, at the verifyWarmup evaluation. Native morsels are stalled
// (20 ms inside the timed dispatch, several times a native morsel's run
// time) only from the seventh on, after the check has kept native code, so
// a rule that re-checked every later morsel would demote native code in
// every run.
func TestVerifyDecidesOnce(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; the controller never proposes tier 6 here")
	}
	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	cost.Simulate = true
	var native atomic.Int64
	stall := func(l Level) {
		if l == LevelNative && native.Add(1) > 6 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if outcomes := keepNative(t, cost, func(e *Engine) { native.Store(0); e.dispatchHook = stall }); outcomes != nil {
		t.Errorf("native code stalled only after its check was demoted in every run: %v", outcomes)
	}
}

// TestVerifyHoldsOneStall: verify reads the rate of every morsel that ran
// at the level since the switch, not each worker's latest one. Bytecode
// morsels stall 3 ms each and native ones not at all, except the one the
// check follows, which stalls 5 ms: slower than a bytecode morsel on its
// own, faster than bytecode over the morsels since the switch. One worker
// runs the morsels in claim order, so this holds at any -cpu.
func TestVerifyHoldsOneStall(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; the controller never proposes tier 6 here")
	}
	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	cost.Simulate = true
	const morsel = 2048
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < 32*morsel; i++ {
		v.AppendInt64(int64(i % 97))
	}
	tbl := storage.NewTable("stall", v)
	var outcomes []string
	for attempt := 0; attempt < 3; attempt++ {
		e := New(Options{Workers: 1, Mode: ModeAdaptive, Cost: cost, MorselSize: morsel, MorselCap: morsel})
		var native atomic.Int64
		e.dispatchHook = func(l Level) {
			switch {
			case l == LevelBytecode:
				time.Sleep(3 * time.Millisecond)
			case native.Add(1) == verifyWarmup:
				time.Sleep(5 * time.Millisecond)
			}
		}
		s := plan.NewScan(tbl, "v")
		res, err := e.RunPlan(plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(s.Schema(), "v"), Name: "s"},
		}), "stall")
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.NativeCompiles != 1 || native.Load() < verifyWarmup {
			t.Fatalf("%d native compiles, %d native morsels: the scan never climbed to native",
				st.NativeCompiles, native.Load())
		}
		if st.NativeFallbacks == 0 && st.FinalLevels[0] == LevelNative {
			return
		}
		outcomes = append(outcomes, fmt.Sprintf("%d fallbacks, finished at %v", st.NativeFallbacks, st.FinalLevels[0]))
	}
	t.Errorf("one stalled native morsel demoted native code in every run: %v", outcomes)
}

// keepNative runs computePlan up to five times under cost, with setup
// applied to each fresh engine. It returns nil once a run climbs to native
// code and finishes there without a fallback, else every run's outcome.
// Morsels are large — a native one runs for milliseconds — for dispatch
// overhead not to decide the comparison, and for a host stall of a few
// milliseconds not to push the rate below bytecode; a longer stall still
// can, so one clean run of five is enough.
func keepNative(t *testing.T, cost *CostModel, setup func(*Engine)) []string {
	t.Helper()
	p, sum, n := computePlan()
	var outcomes []string
	for attempt := 0; attempt < 5; attempt++ {
		e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: cost, MorselSize: 1 << 17, MorselCap: 1 << 17})
		if setup != nil {
			setup(e)
		}
		runtime.GC() // building the plan's table left garbage; collect it before timing
		res, err := e.RunPlan(p, "keep")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0]; got[0].F != sum || got[1].I != n {
			t.Fatalf("SUM %v, COUNT %d; want %v, %d", got[0].F, got[1].I, sum, n)
		}
		st := res.Stats
		if st.NativeCompiles != 1 || st.NativeMorsels == 0 {
			t.Fatalf("%d native compiles, %d native morsels: the scan never climbed to native",
				st.NativeCompiles, st.NativeMorsels)
		}
		if st.NativeFallbacks == 0 && st.FinalLevels[0] == LevelNative {
			return nil
		}
		outcomes = append(outcomes, fmt.Sprintf("%d fallbacks, finished at %v", st.NativeFallbacks, st.FinalLevels[0]))
	}
	return outcomes
}

// computePlan is one compute-dense scan pipeline over 2^21 rows — float
// arithmetic into a scalar SUM, no probe and no grouping — where native
// code runs several times faster than bytecode. It returns the SUM and
// COUNT the plan must produce: every term is a multiple of 1/64 far below
// 2^53, so the sum is exact in any order.
func computePlan() (plan.Node, float64, int64) {
	col := storage.NewColumn("x", storage.Float64)
	sum, n := 0.0, int64(0)
	for i := 0; i < 1<<21; i++ {
		x := float64(i%1000) / 8
		col.AppendFloat64(x)
		if x > 2 {
			sum += x*x + x*1.5 - x/4
			n++
		}
	}
	s := plan.NewScan(storage.NewTable("compute", col), "x")
	x := plan.C(s.Schema(), "x")
	s.Where(expr.Gt(x, expr.Float(2)))
	return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.Sum, Arg: expr.Sub(expr.Add(expr.Mul(x, x), expr.Mul(x, expr.Float(1.5))), expr.Div(x, expr.Float(4))), Name: "s"},
		{Func: plan.CountStar, Name: "n"},
	}), sum, n
}
