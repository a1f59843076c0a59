package exec

import (
	"sync"
	"sync/atomic"

	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// Level is the execution tier of a worker function.
type Level int32

// Execution tiers. LevelNative and LevelOptimized are machine code from
// the copy-and-patch template JIT (internal/asm), available only where
// asm.Supported() holds: LevelNative assembles the IR as code generation
// emitted it, LevelOptimized assembles it after the IR pass pipeline and
// is the paper's static optimized baseline (ModeOptimized) — no other mode
// runs it. LevelVector is not a compilation tier but a different engine:
// the morsel-driven vectorized backend, whose kernel needs no compilation.
// To the controller it is one more level of the ladder — the candidate
// whose compile time is zero.
const (
	LevelBytecode Level = iota
	LevelOptimized
	LevelNative
	LevelVector
	numLevels
)

func (l Level) String() string {
	switch l {
	case LevelBytecode:
		return "bytecode"
	case LevelNative:
		return "native"
	case LevelVector:
		return "vectorized"
	default:
		return "optimized"
	}
}

// machineCode is the set of levels whose variant the template JIT
// assembles: both fail to compile together (platform, NoNative) and are
// counted together (Stats.NativeCompiles, NativeMorsels, NativeFallbacks).
const machineCode = levelMask(1<<LevelOptimized | 1<<LevelNative)

// jit returns the compiler tier that produces level l's variant; l must be
// one of the machine-code levels.
func (l Level) jit() jit.Level {
	if l == LevelOptimized {
		return jit.Optimized
	}
	return jit.Unoptimized
}

// levelMask is a set of levels, one bit each.
type levelMask uint32

const allLevels levelMask = 1<<numLevels - 1

func maskOf(ls ...Level) levelMask {
	var m levelMask
	for _, l := range ls {
		m |= 1 << l
	}
	return m
}

func (m levelMask) has(l Level) bool { return m&(1<<l) != 0 }

// above returns the members of m higher than l.
func (m levelMask) above(l Level) levelMask { return m &^ (1<<(l+1) - 1) }

// variants is every executable form of one worker function: the bytecode
// program, the machine code of the engine's one compiled level
// (Mode.levels) and the vectorized kernel, each nil until some run made
// it. The plan cache stores one per pipeline and a Handle is created from
// one, so a warm run starts with everything an earlier run produced. All
// of it is immutable, address-indirect (bases re-registered per run
// resolve through the run's segment table) and safe to share between
// in-flight queries.
type variants struct {
	prog     *vm.Program
	compiled *jit.Compiled
	vec      *vector.Kernel
}

// Handle is the paper's function handle (Fig. 5): it stores every variant
// of a worker function and dispatches each morsel to the installed one.
// Changing the execution mode is a single atomic store of the level; all
// workers pick up the new variant at their next morsel, and a variant that
// was left stays on the handle, so going back costs the same one store.
type Handle struct {
	Fn     *ir.Function
	Instrs int

	// UseIRInterp forces direct SSA interpretation (ModeIRInterp).
	UseIRInterp bool

	// The bytecode program is what the handle was created with, or else
	// the translation of Fn made the first time it is asked for
	// (bytecode). Dispatching at LevelBytecode asks, so a handle at that
	// level always has one.
	vmOpts   vm.Options
	progOnce sync.Once
	prog     *vm.Program
	progErr  error

	compiled  atomic.Pointer[jit.Compiled] // the one compiled level; nil until staged
	vec       *vector.Kernel               // nil when the pipeline has no kernel
	level     atomic.Int32
	compiling atomic.Bool

	// disabled is the set of levels this pipeline may not run at. It is
	// seeded at creation (the levels outside the mode's set, no backend on
	// the platform, NoNative / NoVector, no kernel for the pipeline's
	// shape) and grows at run time: a failed compilation or a demotion
	// disables the level for the rest of the run. Nothing is ever
	// re-enabled.
	disabled atomic.Uint32
}

// newHandle wraps the variants of one worker function — none yet, or what
// the plan cache handed out — and translates Fn under opts if bytecode is
// asked for and v has none. The Handle itself carries only the per-run
// dispatch state: level, in-flight compile flag, disabled levels.
func newHandle(fn *ir.Function, v variants, disabled levelMask, opts vm.Options) *Handle {
	h := &Handle{Fn: fn, Instrs: fn.NumInstrs(), vmOpts: opts, vec: v.vec}
	if v.prog != nil {
		h.progOnce.Do(func() { h.prog = v.prog })
	}
	h.compiled.Store(v.compiled)
	if v.vec == nil {
		disabled |= maskOf(LevelVector)
	}
	h.disabled.Store(uint32(disabled))
	return h
}

// bytecode returns the bytecode program, translating Fn on the first call;
// fresh reports whether this call translated it.
func (h *Handle) bytecode() (p *vm.Program, fresh bool, err error) {
	h.progOnce.Do(func() {
		h.prog, h.progErr = vm.Translate(h.Fn, h.vmOpts)
		fresh = true
	})
	return h.prog, fresh, h.progErr
}

// Level returns the currently installed tier.
func (h *Handle) Level() Level { return Level(h.level.Load()) }

// Compiling reports whether a background compilation is in flight.
func (h *Handle) Compiling() bool { return h.compiling.Load() }

// BeginCompile marks a compilation in flight; returns false if one
// already is.
func (h *Handle) BeginCompile() bool {
	return h.compiling.CompareAndSwap(false, true)
}

// AbortCompile clears the in-flight flag after a failed compilation.
func (h *Handle) AbortCompile() { h.compiling.Store(false) }

// Disabled returns the levels this pipeline may not run at.
func (h *Handle) Disabled() levelMask { return levelMask(h.disabled.Load()) }

// Disable removes the levels in m from the pipeline's choices for the rest
// of the run.
func (h *Handle) Disable(m levelMask) {
	for {
		old := h.disabled.Load()
		if h.disabled.CompareAndSwap(old, old|uint32(m)) {
			return
		}
	}
}

// Has reports whether level l's variant is on the handle, ready to
// install. Bytecode always is: it is translated on first use.
func (h *Handle) Has(l Level) bool {
	switch l {
	case LevelBytecode:
		return true
	case LevelVector:
		return h.vec != nil
	}
	c := h.compiled.Load()
	return c != nil && c.Level == l.jit()
}

// Stage puts a compiled variant on the handle without installing it.
func (h *Handle) Stage(c *jit.Compiled) { h.compiled.Store(c) }

// Install switches the pipeline's remaining morsels to level l, whose
// variant must be on the handle (§III-B: "Once set, all remaining morsels
// will be processed using the new variant").
func (h *Handle) Install(l Level) {
	h.level.Store(int32(l))
	h.compiling.Store(false)
}

// Dispatch runs one morsel with the installed variant — the paper's
// per-morsel dispatch code (Fig. 5).
func (h *Handle) Dispatch(ctx *rt.Ctx, args []uint64) {
	if h.UseIRInterp {
		interp.Run(h.Fn, ctx, args)
		return
	}
	switch l := h.Level(); l {
	case LevelBytecode:
		// The coordinator translates a pipeline before it leaves it in
		// bytecode and fails the query if that fails (queryRun.bytecode),
		// so only a switch made outside the controller translates here.
		p, _, err := h.bytecode()
		if err != nil {
			panic(err)
		}
		p.Run(ctx, args)
	case LevelVector:
		h.vec.Run(ctx, args)
	default:
		h.compiled.Load().Run(ctx, args)
	}
}
