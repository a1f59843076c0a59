package exec

import "time"

// CostModel predicts compilation times and speedups for the controller's
// extrapolation (Fig. 7) and — when Simulate is set — imposes the modeled
// compile latency on compilation tasks.
//
// The paper determines both empirically: compile time is near-linear in
// the function's instruction count (Fig. 6), with optimized compilation
// growing super-linearly for very large functions (§V-E, Fig. 15), and
// speedups are measured per mode (§V-D: bytecode is 3.6x slower than
// unoptimized and 5.0x slower than optimized machine code).
//
// Our template JIT assembles orders of magnitude faster than LLVM, which
// would flatten the latency/throughput tradeoff the paper studies; the
// Paper() model restores LLVM-scale costs as wall-clock latency (the
// compile still really runs). Native() models the measured costs of the
// levels the adaptive controller chooses among for real-latency
// experiments. DESIGN.md documents the substitution.
//
// Both machine-code levels run the same back end. The Native* terms price
// native code, the paper's unoptimized tier and the adaptive controller's
// compiled candidate; the Opt* terms price optimized code, a static
// baseline only (Mode.levels), which a static mode imposes under Simulate.
type CostModel struct {
	OptBase     time.Duration
	OptPerInstr time.Duration
	// OptCubic adds the super-linear term: seconds per cubed instruction
	// of the function being compiled. Fig. 15's optimized curve stays
	// near-linear below ~5k instructions (consistent with Fig. 6) and then
	// explodes; a cubic term reproduces that knee (§V-E).
	OptCubic float64

	// NativeBase/NativePerInstr model the latency of compiling the IR to
	// machine code without optimization passes.
	NativeBase     time.Duration
	NativePerInstr time.Duration

	// SpeedupNative is native code's throughput ratio relative to
	// bytecode.
	SpeedupNative float64

	// Simulate imposes the modeled times on actual compilations.
	Simulate bool
}

// speedupNative is the throughput prior both models share: since both
// price the same back end, they differ only in compile latency and
// Simulate. It is a rough fit of this substrate — measured
// native-over-bytecode spans 2.2x (hash-bound Q10, hashwalk) to 9x
// (float-dense aggregation), and the controller only needs the order of
// magnitude — and it only ever extrapolates; verify holds a level the
// controller promoted to the rate measured at the level it left, never to
// this number.
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
		OptBase:        2 * time.Millisecond,
		OptPerInstr:    18 * time.Microsecond,
		OptCubic:       3.5e-12, // ~3.5 s extra at 10k instructions in one function
		NativeBase:     500 * time.Microsecond,
		NativePerInstr: 2750 * time.Nanosecond,
		SpeedupNative:  speedupNative,
		Simulate:       true,
	}
}

// Native returns a model of the in-process native back end with no
// simulated latency. It sets nothing for optimized code: with Simulate off
// ModeOptimized compiles at its real cost, and the controller never
// considers it.
func Native() *CostModel {
	return &CostModel{
		// Measured on the register-allocating template JIT (PR 8,
		// EXPERIMENTS.md compile-latency table): ~0.35 µs per instruction
		// plus a small fixed cost for the allocator's per-function arrays,
		// landing at or below the bytecode translator.
		NativeBase:     25 * time.Microsecond,
		NativePerInstr: 350 * time.Nanosecond,
		SpeedupNative:  speedupNative,
	}
}

// CompileTime predicts the time to compile instrs instructions to level l,
// the largest single function among them having largestFn (for one
// function, the same number). Optimized compilation is linear in the
// total and super-linear in the largest function. Bytecode has nothing to
// compile.
func (m *CostModel) CompileTime(l Level, instrs, largestFn int) time.Duration {
	switch l {
	case LevelOptimized:
		d := m.OptBase + time.Duration(instrs)*m.OptPerInstr
		if m.OptCubic > 0 {
			n := float64(largestFn)
			d += time.Duration(m.OptCubic * n * n * n * float64(time.Second))
		}
		return d
	case LevelNative:
		return m.NativeBase + time.Duration(instrs)*m.NativePerInstr
	}
	return 0
}

// OptTime predicts the optimized compile time.
func (m *CostModel) OptTime(instrs int) time.Duration {
	return m.CompileTime(LevelOptimized, instrs, instrs)
}

// NativeTime predicts the compile time of native (unoptimized) code for a
// function with the given instruction count.
func (m *CostModel) NativeTime(instrs int) time.Duration {
	return m.CompileTime(LevelNative, instrs, instrs)
}

// Speedup returns the modeled throughput of a level of the adaptive ladder
// relative to bytecode.
func (m *CostModel) Speedup(l Level) float64 {
	if l == LevelNative {
		return m.SpeedupNative
	}
	return 1
}

// choose is the Fig. 7 decision: extrapolate the remaining duration of the
// pipeline under the current level and under every allowed level above it,
// and return the level with the shortest one. r0 is the measured tuple
// rate per worker at level cur, n the tuples left, w the workers the
// pipeline holds. Staying wins ties, and among candidates the lower level
// does (strict <, ascending order): a switch must pay for itself.
func (m *CostModel) choose(cur Level, allowed levelMask, instrs int, r0, n, w float64) Level {
	curSpeed := m.Speedup(cur)
	best, bestT := cur, n/r0/w
	for l := cur + 1; l < numLevels; l++ {
		if !allowed.has(l) {
			continue
		}
		c := m.CompileTime(l, instrs, instrs).Seconds()
		r := r0 / curSpeed * m.Speedup(l)
		// While one thread compiles, the remaining w-1 continue at r0.
		rem := n - (w-1)*r0*c
		if rem < 0 {
			rem = 0
		}
		if t := c + rem/r/w; t < bestT {
			best, bestT = l, t
		}
	}
	return best
}
