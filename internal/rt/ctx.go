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
// The args slice aliases the context's staging buffer.
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

	regs []uint64
}

// Regs returns the context's register file, n slots long. There is one
// file per context, grown when n exceeds it and reused otherwise: no extern
// re-enters generated code, so one function runs on a context at a time.
// The contents are whatever the last run left — after a trap or a fault,
// the slots its side exit stored.
func (c *Ctx) Regs(n int) []uint64 {
	if cap(c.regs) < n {
		c.regs = make([]uint64, n)
	}
	return c.regs[:n]
}

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
