package exec

import "time"

// CostModel predicts compilation times for the controller's extrapolation
// (Fig. 7) and — under the Paper() model — imposes the modeled compile
// latency on compilations. It has nothing to tune: pick Paper() or Native().
//
// The paper determines its inputs empirically: compile time is near-linear
// in the function's instruction count (Fig. 6), with optimized compilation
// growing super-linearly for very large functions (§V-E, Fig. 15), and
// speedups are measured per mode (§V-D: bytecode is 3.6x slower than
// unoptimized and 5.0x slower than optimized machine code).
//
// Our template JIT assembles orders of magnitude faster than LLVM, which
// would flatten the latency/throughput tradeoff the paper studies; the
// Paper() model restores LLVM-scale costs as wall-clock latency (the
// compile still really runs). Native() models the measured cost of native
// code, the adaptive controller's one compiled candidate, for real-latency
// experiments. DESIGN.md documents the substitution.
//
// Both flavours of machine code run the same back end. The native* terms
// price native code, the paper's unoptimized tier and the adaptive
// controller's one compiled candidate; the opt* terms price optimized
// code, a static baseline only (ModeOptimized), which that mode imposes
// under Paper(). Both models share one throughput prior, speedupNative.
type CostModel struct {
	optBase     time.Duration
	optPerInstr time.Duration
	// optCubic adds the super-linear term: seconds per cubed instruction
	// of the function being compiled. Fig. 15's optimized curve stays
	// near-linear below ~5k instructions (consistent with Fig. 6) and then
	// explodes; a cubic term reproduces that knee (§V-E).
	optCubic float64

	// nativeBase/nativePerInstr model the latency of compiling the IR to
	// machine code without optimization passes.
	nativeBase     time.Duration
	nativePerInstr time.Duration

	// simulate imposes the modeled times on actual compilations.
	simulate bool
}

// speedupNative is native code's throughput ratio relative to bytecode,
// the prior both models share: since both price the same back end, they
// differ only in compile latency and simulate. It is a rough fit of this
// substrate — measured native-over-bytecode spans 2.2x (hash-bound Q10,
// hashwalk) to 9x (float-dense aggregation), and the controller only needs
// the order of magnitude. It only ever extrapolates the choice to promote,
// which is final: no measured rate is ever held against it.
const speedupNative = 3.0

// Paper returns the cost model calibrated to the paper's measurements:
// unoptimized ≈ 6 ms and optimized ≈ 42 ms for TPC-H Q1's ~2000
// instructions (Table I), near-linear growth over 300..19000 instructions
// (Fig. 6), and a cubic term for optimized compilation that adds ~3.5 s at
// 10k instructions in a single function (Fig. 15). Native code pays LLVM's
// unoptimized latency, so the adaptive ladder's compiled step is the
// paper's bytecode → unoptimized step.
func Paper() *CostModel {
	return &CostModel{
		optBase:        2 * time.Millisecond,
		optPerInstr:    18 * time.Microsecond,
		optCubic:       3.5e-12, // ~3.5 s extra at 10k instructions in one function
		nativeBase:     500 * time.Microsecond,
		nativePerInstr: 2750 * time.Nanosecond,
		simulate:       true,
	}
}

// Native returns a model of the in-process native back end with no
// simulated latency. It sets nothing for optimized code: with simulate off
// ModeOptimized compiles at its real cost, and the controller never
// considers it.
func Native() *CostModel {
	return &CostModel{
		// Measured on the register-allocating template JIT (PR 8,
		// EXPERIMENTS.md compile-latency table): ~0.35 µs per instruction
		// plus a small fixed cost for the allocator's per-function arrays,
		// landing at or below the bytecode translator.
		nativeBase:     25 * time.Microsecond,
		nativePerInstr: 350 * time.Nanosecond,
	}
}

// compileTime predicts the time to compile instrs instructions to machine
// code, optimized or not, the largest single function among them having
// largestFn (for one function, the same number). Optimized compilation is
// linear in the total and super-linear in the largest function.
func (m *CostModel) compileTime(optimized bool, instrs, largestFn int) time.Duration {
	if !optimized {
		return m.nativeBase + time.Duration(instrs)*m.nativePerInstr
	}
	d := m.optBase + time.Duration(instrs)*m.optPerInstr
	if m.optCubic > 0 {
		n := float64(largestFn)
		d += time.Duration(m.optCubic * n * n * n * float64(time.Second))
	}
	return d
}

// OptTime predicts the optimized compile time.
func (m *CostModel) OptTime(instrs int) time.Duration {
	return m.compileTime(true, instrs, instrs)
}

// NativeTime predicts the compile time of native (unoptimized) code for a
// function with the given instruction count.
func (m *CostModel) NativeTime(instrs int) time.Duration {
	return m.compileTime(false, instrs, instrs)
}

// promote is the Fig. 7 decision for a pipeline in bytecode: extrapolate
// its remaining duration in bytecode and in native code, compilation
// included, and report whether native code is shorter. r0 is the measured
// tuple rate per worker in bytecode, n the tuples left, w the query's
// grant (queryRun.grant): the workers its phases can hold. Native code
// runs speedupNative times faster. Staying wins ties (strict <): a switch
// must pay for itself.
func (m *CostModel) promote(instrs int, r0, n, w float64) bool {
	c := m.NativeTime(instrs).Seconds()
	// While one thread compiles, the remaining w-1 continue at r0.
	rem := max(n-(w-1)*r0*c, 0)
	return c+rem/(r0*speedupNative)/w < n/r0/w
}
