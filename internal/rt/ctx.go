package rt

import (
	"fmt"
	"sort"
)

// MaxCallArgs is the maximum arity of an extern function callable from
// generated code.
const MaxCallArgs = 16

// Func is the uniform ABI of runtime functions callable from generated
// code: arguments and result travel as raw 64-bit register values
// (float64 values as their IEEE bit patterns, addresses as rt.Addr).
// The args slice aliases the context's staging buffer: an extern that
// re-enters generated code (e.g. the pipeline scheduler) must copy the
// values it needs before doing so.
type Func func(ctx *Ctx, args []uint64) uint64

// Ctx is the per-worker execution context threaded through generated code.
// Each worker thread owns one Ctx; nothing in it is shared, so extern calls
// and register-file reuse are synchronization-free.
type Ctx struct {
	Mem   *Memory
	Funcs []Func // bound externs, indexed by the module's extern index
	Args  [MaxCallArgs]uint64

	// Worker identifies the worker thread (0-based) for thread-local
	// runtime structures such as per-worker aggregation hash tables.
	Worker int

	// Query points at engine-owned per-query state (opaque to rt).
	Query any

	// Local points at engine-owned per-worker state.
	Local any

	regStack [][]uint64
	depth    int
}

// PushRegs returns a register file of n slots for a new interpretation
// frame, reusing per-depth buffers. Frames nest when an extern re-enters
// generated code (queryStart calls the scheduler, which may run worker
// functions on the calling context); each depth owns its buffer, so outer
// frames stay intact. Callers must pair with PopRegs.
func (c *Ctx) PushRegs(n int) []uint64 {
	if c.depth == len(c.regStack) {
		c.regStack = append(c.regStack, nil)
	}
	buf := c.regStack[c.depth]
	if cap(buf) < n {
		buf = make([]uint64, n)
		c.regStack[c.depth] = buf
	}
	c.depth++
	return buf[:n]
}

// PopRegs releases the innermost frame.
func (c *Ctx) PopRegs() { c.depth-- }

// CurRegs returns the innermost live register frame (nil when none).
// Tests use it to inspect canonical slot state after a trap or fault
// unwound a frame without popping it.
func (c *Ctx) CurRegs() []uint64 {
	if c.depth == 0 {
		return nil
	}
	return c.regStack[c.depth-1]
}

// ResetRegs discards all frames; used when a trap unwinds past Push/Pop
// pairing.
func (c *Ctx) ResetRegs() { c.depth = 0 }

// Registry maps extern names to their Go implementations. The engine
// registers the full runtime surface once; modules bind against it by name
// when they are prepared for execution.
type Registry struct {
	funcs map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{funcs: make(map[string]Func)} }

// Register installs fn under name, replacing any previous binding.
func (r *Registry) Register(name string, fn Func) {
	r.funcs[name] = fn
}

// Func returns the extern registered under name, or nil.
func (r *Registry) Func(name string) Func { return r.funcs[name] }

// Bind resolves a module's extern declaration list into a call table.
// A missing extern is an immediate error: the alternative is a nil-call
// panic at an arbitrary point mid-query.
func (r *Registry) Bind(names []string) ([]Func, error) {
	out := make([]Func, len(names))
	for i, n := range names {
		fn, ok := r.funcs[n]
		if !ok {
			return nil, fmt.Errorf("rt: extern %q not registered", n)
		}
		out[i] = fn
	}
	return out, nil
}

// Names returns the registered extern names, sorted (for tests and
// diagnostics).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
