// Package jit is the "machine code" stage of the reproduction: it turns
// IR functions into directly executable machine code through the
// copy-and-patch template JIT (internal/asm), standing in for LLVM's JIT
// backend (DESIGN.md §1 documents the substitution).
//
// Two tiers mirror the paper's compilation modes (Fig. 3):
//
//   - Unoptimized: assembles the function as code generation emitted it —
//     the analogue of LLVM's fast instruction selection.
//
//   - Optimized: runs the full IR pass pipeline on a clone of the
//     function, then assembles the clone.
//
// Both tiers execute the same semantics as the bytecode interpreter (same
// register files, same segmented memory, same trap behaviour), which is
// what makes mid-pipeline mode switching safe (§IV-E). On a platform
// without a native backend, or for a function using an op outside the
// templates, Compile fails with an error wrapping asm.ErrUnsupported and
// the engine leaves the pipeline in bytecode.
package jit

import (
	"fmt"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/passes"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// Level identifies a compilation tier.
type Level int

// Compilation tiers.
const (
	Unoptimized Level = iota
	Optimized
)

func (l Level) String() string {
	if l == Optimized {
		return "optimized"
	}
	return "unoptimized"
}

// Compiled is an executable compiled function.
type Compiled struct {
	Name  string
	Level Level
	Stats Stats

	code *asm.Code
}

// Stats describes one compilation.
type Stats struct {
	// IRInstrs is the instruction count of the assembled function (after
	// passes, for the optimized tier).
	IRInstrs int
	// Passes summarizes the optimization pipeline (optimized tier only).
	Passes passes.Stats
}

// SizeBytes estimates the retained in-memory footprint of the compiled
// function for compilation-cache byte budgeting.
func (c *Compiled) SizeBytes() int {
	n := 96 + len(c.Name)
	if c.code != nil { // only a Compiled not made by Compile has no code
		n += c.code.SizeBytes()
	}
	return n
}

// Run executes the compiled function. It is safe for concurrent use with
// distinct contexts.
func (c *Compiled) Run(ctx *rt.Ctx, args []uint64) uint64 { return c.code.Run(ctx, args) }

// Compile compiles f at the given tier. The prog parameter is accepted
// for callers that already hold the bytecode translation; both tiers
// compile from the IR, so it may be nil. The unoptimized tier splits f's
// critical edges in place; the optimized tier leaves f untouched.
func Compile(f *ir.Function, level Level, prog *vm.Program) (*Compiled, error) {
	_ = prog
	c := &Compiled{Name: f.Name, Level: level}
	if level == Optimized {
		f = f.Clone()
		c.Stats.Passes = passes.Optimize(f)
		if err := f.Verify(); err != nil {
			return nil, fmt.Errorf("jit: optimize %s: %w", f.Name, err)
		}
	}
	code, err := asm.Compile(f)
	if err != nil {
		return nil, err
	}
	c.code = code
	c.Stats.IRInstrs = f.NumInstrs()
	return c, nil
}
