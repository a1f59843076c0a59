package exec

import (
	"sync/atomic"

	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// Level is the execution tier of a worker function.
type Level int32

// Execution tiers: the adaptive ladder, bytecode → native machine code.
// LevelNative is machine code from the copy-and-patch template JIT
// (internal/asm), available only where asm.Supported() holds. Which
// flavour of machine code is the engine's (Engine.tier): the IR as code
// generation emitted it, or — for ModeOptimized only, the paper's static
// optimized baseline — the IR after the pass pipeline.
const (
	LevelBytecode Level = iota
	LevelNative
)

func (l Level) String() string {
	if l == LevelNative {
		return "native"
	}
	return "bytecode"
}

// variants is every executable form of one worker function: the bytecode
// program and the engine's machine code (Engine.tier), each nil until
// some run made it. The plan cache stores one per pipeline and a Handle is
// created from one, so a warm run starts with everything an earlier run
// produced. All of it is immutable, address-indirect (bases re-registered
// per run resolve through the run's segment table) and safe to share
// between in-flight queries.
type variants struct {
	prog     *vm.Program
	compiled *jit.Compiled
}

// Handle is the paper's function handle (Fig. 5): it holds the variants of
// a worker function and dispatches each morsel to the installed one. The
// machine code on the handle is its level: nil runs bytecode, and
// installing native code is one atomic store, which every worker reads
// before its next morsel.
type Handle struct {
	Fn     *ir.Function
	Instrs int

	// UseIRInterp forces direct SSA interpretation (ModeIRInterp).
	UseIRInterp bool

	// prog is the bytecode program: the plan cache's, or the one the
	// coordinator translated before the pipeline's first morsel
	// (queryRun.bytecode). A pipeline reaches a bytecode morsel only after
	// that, so prog is set whenever native is nil at a dispatch.
	prog *vm.Program

	native atomic.Pointer[jit.Compiled] // the installed machine code; nil runs bytecode

	// nativeOff rules native code out for this pipeline. It is seeded at
	// creation (Engine.nativeOff) and set at run time by a failed
	// compilation, for the rest of the run; nothing ever clears it.
	nativeOff atomic.Bool
}

// newHandle wraps the variants of one worker function — none yet, or what
// the plan cache handed out — and installs the cache's machine code. An
// engine with native code ruled out never compiles, so its cache holds
// none.
func newHandle(fn *ir.Function, v variants, nativeOff bool) *Handle {
	h := &Handle{Fn: fn, Instrs: fn.NumInstrs(), prog: v.prog}
	h.native.Store(v.compiled)
	h.nativeOff.Store(nativeOff)
	return h
}

// Level returns the currently installed tier.
func (h *Handle) Level() Level {
	if h.native.Load() != nil {
		return LevelNative
	}
	return LevelBytecode
}

// NativeOff reports whether native code is ruled out for this pipeline.
func (h *Handle) NativeOff() bool { return h.nativeOff.Load() }

// DisableNative rules native code out for the rest of the run.
func (h *Handle) DisableNative() { h.nativeOff.Store(true) }

// Dispatch runs one morsel with the installed variant — the paper's
// per-morsel dispatch code (Fig. 5) — and returns the level it ran.
func (h *Handle) Dispatch(ctx *rt.Ctx, args []uint64) Level {
	if h.UseIRInterp {
		interp.Run(h.Fn, ctx, args)
		return LevelBytecode
	}
	if c := h.native.Load(); c != nil {
		c.Run(ctx, args)
		return LevelNative
	}
	h.prog.Run(ctx, args)
	return LevelBytecode
}
