// Package jit is the "machine code" stage of the reproduction: it compiles
// IR functions into directly executable Go closures, standing in for
// LLVM's JIT backend (DESIGN.md §1 documents the substitution).
//
// Two tiers mirror the paper's compilation modes (Fig. 3). Both use the
// value-threading closure backend (see bbackend.go):
//
//   - Unoptimized: direct tree compilation with instruction-selection
//     level fusion only (overflow checks, branch conditions) — the
//     analogue of LLVM's fast instruction selection: a cheap linear pass
//     that removes interpretation overhead without optimizing.
//
//   - Optimized: runs the full IR pass pipeline on a clone of the
//     function, then compiles with all fusions including load inlining —
//     the analogue of optimized machine code.
//
// Both tiers execute byte-identical semantics to the bytecode interpreter
// (same register files, same segmented memory, same trap behaviour), which
// is what makes mid-pipeline mode switching safe (§IV-E).
package jit

import (
	"time"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/passes"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

var _ = vm.Options{} // the vm dependency carries the Program type in Compile's signature

// Level identifies a compilation tier.
type Level int

// Compilation tiers. Native is the copy-and-patch template JIT
// (internal/asm): real machine code, only available where the platform
// has a backend (asm.Supported()).
const (
	Unoptimized Level = iota
	Optimized
	Native
)

func (l Level) String() string {
	switch l {
	case Optimized:
		return "optimized"
	case Native:
		return "native"
	}
	return "unoptimized"
}

// frame is the execution state threaded through compiled closures.
type frame struct {
	regs []uint64
	ctx  *rt.Ctx
	mem  *rt.Memory
	ret  uint64
}

// Compiled is an executable compiled function.
type Compiled struct {
	Name  string
	Level Level

	numRegs   int
	constPool []uint64
	paramBase int
	run       func(fr *frame)
	native    *asm.Code // set instead of run for the Native tier

	Stats Stats
}

// Stats describes one compilation.
type Stats struct {
	// IRInstrs is the instruction count of the compiled form (after
	// passes, for the optimized tier).
	IRInstrs int
	// Closures is the number of closures generated.
	Closures int
	// Passes summarizes the optimization pipeline (optimized tier only).
	Passes passes.Stats
	// CompileTime is the measured wall-clock translation time (excluding
	// any simulated cost-model latency, which the engine adds).
	CompileTime time.Duration
}

// NumRegs returns the register-file size in slots.
func (c *Compiled) NumRegs() int { return c.numRegs }

// closureBytes estimates the retained footprint of one generated closure
// (the closure header plus captured values); cache accounting only needs
// the order of magnitude.
const closureBytes = 80

// SizeBytes estimates the retained in-memory footprint of the compiled
// function for compilation-cache byte budgeting.
func (c *Compiled) SizeBytes() int {
	n := 96 + len(c.Name) + len(c.constPool)*8 + c.Stats.Closures*closureBytes
	if c.native != nil {
		n += c.native.SizeBytes()
	}
	return n
}

// Run executes the compiled function. It is safe for concurrent use with
// distinct contexts: all mutable state lives in the frame and the context.
func (c *Compiled) Run(ctx *rt.Ctx, args []uint64) uint64 {
	if c.native != nil {
		return c.native.Run(ctx, args)
	}
	regs := ctx.PushRegs(c.numRegs)
	copy(regs, c.constPool)
	copy(regs[c.paramBase:], args)
	fr := frame{regs: regs, ctx: ctx, mem: ctx.Mem}
	c.run(&fr)
	ctx.PopRegs()
	return fr.ret
}

// Compile compiles f at the given tier. The prog parameter is accepted
// for callers that already hold the bytecode translation; the closure
// backend compiles from the IR directly, so it may be nil.
//
// The Native tier assembles machine code via internal/asm; it fails with
// an error wrapping asm.ErrUnsupported on platforms without a backend or
// for functions using ops outside the template set, and the engine leaves
// the pipeline at the level it is at.
func Compile(f *ir.Function, level Level, prog *vm.Program) (*Compiled, error) {
	_ = prog
	start := time.Now()
	if level == Native {
		code, err := asm.Compile(f)
		if err != nil {
			return nil, err
		}
		c := &Compiled{
			Name:   f.Name,
			Level:  Native,
			native: code,
		}
		c.numRegs = code.NumSlots()
		c.Stats.IRInstrs = f.NumInstrs()
		c.Stats.CompileTime = time.Since(start)
		return c, nil
	}
	c, err := compileClosures(f, level)
	if err != nil {
		return nil, err
	}
	c.Level = level
	c.Stats.CompileTime = time.Since(start)
	return c, nil
}
