package exec

import (
	"sync"
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

// Handle is the paper's function handle (Fig. 5): it stores every variant
// of a worker function and dispatches each morsel to the installed one.
// Changing the execution mode is a single atomic store of the level; all
// workers pick up the new variant at their next morsel.
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

	compiled atomic.Pointer[jit.Compiled] // the machine code; nil until staged
	level    atomic.Int32

	// nativeOff rules native code out for this pipeline. It is seeded at
	// creation (Engine.nativeOff) and set at run time by a failed
	// compilation, for the rest of the run; nothing ever clears it.
	nativeOff atomic.Bool
}

// newHandle wraps the variants of one worker function — none yet, or what
// the plan cache handed out — and translates Fn under opts if bytecode is
// asked for and v has none. The Handle itself carries only the per-run
// dispatch state: level, native ruled out.
func newHandle(fn *ir.Function, v variants, nativeOff bool, opts vm.Options) *Handle {
	h := &Handle{Fn: fn, Instrs: fn.NumInstrs(), vmOpts: opts}
	if v.prog != nil {
		h.progOnce.Do(func() { h.prog = v.prog })
	}
	h.compiled.Store(v.compiled)
	h.nativeOff.Store(nativeOff)
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

// NativeOff reports whether native code is ruled out for this pipeline.
func (h *Handle) NativeOff() bool { return h.nativeOff.Load() }

// DisableNative rules native code out for the rest of the run.
func (h *Handle) DisableNative() { h.nativeOff.Store(true) }

// Has reports whether level l's variant is on the handle, ready to
// install. Bytecode always is: it is translated on first use.
func (h *Handle) Has(l Level) bool {
	return l == LevelBytecode || h.compiled.Load() != nil
}

// Stage puts a compiled variant on the handle without installing it.
func (h *Handle) Stage(c *jit.Compiled) { h.compiled.Store(c) }

// Install switches the pipeline's remaining morsels to level l, whose
// variant must be on the handle (§III-B: "Once set, all remaining morsels
// will be processed using the new variant"): one atomic store, which every
// worker reads before its next morsel.
func (h *Handle) Install(l Level) { h.level.Store(int32(l)) }

// Dispatch runs one morsel with the installed variant — the paper's
// per-morsel dispatch code (Fig. 5).
func (h *Handle) Dispatch(ctx *rt.Ctx, args []uint64) {
	if h.UseIRInterp {
		interp.Run(h.Fn, ctx, args)
		return
	}
	if h.Level() != LevelBytecode {
		h.compiled.Load().Run(ctx, args)
		return
	}
	// The coordinator translates a pipeline before it leaves it in bytecode
	// and fails the query if that fails (queryRun.bytecode), so only a
	// switch made outside the controller translates here.
	p, _, err := h.bytecode()
	if err != nil {
		panic(err)
	}
	p.Run(ctx, args)
}
