// Package asm is the native machine-code tier: a copy-and-patch style
// template JIT that lowers IR functions to directly executable amd64 code
// (Xu & Kjolstad 2021; TPDE 2025). Each IR op has a hand-written machine
// code template parameterized over its operand kinds (register-file slot
// or immediate); compilation is a single linear pass that stitches the
// templates together, patches branch displacements, and publishes the
// bytes in mmap'd executable memory — no optimization passes, so
// assemble latency stays at or below bytecode translation.
// A TPDE-style single-pass register allocator (regalloc_amd64.go) keeps
// SSA values live in machine registers across the stitched templates
// within a block and along chains of blocks laid out on sole-predecessor
// fall-through, spilling to register-file slots only under pressure
// and flushing every live register to its canonical slot at each exit
// point, so all other tiers stay bit-compatible. Every pool register
// survives a memory access: a segment translation uses RAX, RCX and RDX
// only. As LLVM's instruction selection does for the paper, the emitter
// folds a single-use GEP into its access's address, reads a constant
// base's segment header directly, translates a base accessed twice or
// more in a chain once, into two frame slots that every extern call
// invalidates, and lowers the §IV-F checked-arithmetic group to the op
// plus JO. An access not provably inside its segment takes the full
// translation of its exact address out of line, faulting as before.
//
// Generated code executes against the same state as every other tier: the
// per-frame register file (one 8-byte slot per SSA value, pinned in R12),
// the segmented rt address space (segment-table snapshot pinned in
// R15/RBX), and the extern call table. Calls, traps, and memory faults do
// not happen inside native code; instead the template writes an exit
// record into the native context and returns to Go through the trampoline
// (enter_amd64.s), and the Go-side driver loop dispatches the extern or
// throws the rt.Trap before re-entering at the recorded resume address.
// This exit-to-Go protocol is what keeps the tier safe under Go's stack
// growth, GC, and async preemption: the goroutine's stack never holds a
// JIT address while Go code runs.
//
// The architecture seam is the build tag: amd64 on linux/darwin gets the
// real backend, every other GOARCH/GOOS compiles the stub whose Compile
// returns ErrUnsupported, and the engine leaves each pipeline in bytecode.
package asm

import (
	"errors"
	"sync/atomic"
)

// ErrUnsupported reports that the native backend cannot compile on this
// platform (or, wrapped, a specific function). The engine then disables
// the native level for the pipeline, which stays where it is.
var ErrUnsupported = errors.New("native code generation unsupported")

// forceAllocFail, when set (tests only), makes executable-memory
// allocation fail so graceful degradation can be exercised on platforms
// where the backend otherwise works.
var forceAllocFail atomic.Bool

// SetAllocFailure forces (or clears) simulated executable-memory
// allocation failure; tests use it to drive the engine's fallback path.
func SetAllocFailure(fail bool) { forceAllocFail.Store(fail) }

// ExecMemStats counts the executable memory currently mapped: every
// assembled function owns one page-rounded mapping, unmapped by a
// finalizer once its Code is unreachable.
type ExecMemStats struct {
	Mappings int64 `json:"mappings"`
	Bytes    int64 `json:"bytes"`
}

// execMappings and execBytes go up in allocExec and down in free; on a
// platform without a backend nothing is ever mapped and both stay zero.
var execMappings, execBytes atomic.Int64

// ExecMemory snapshots the live executable mappings of the process.
func ExecMemory() ExecMemStats {
	return ExecMemStats{Mappings: execMappings.Load(), Bytes: execBytes.Load()}
}
