//go:build !amd64 || !(linux || darwin)

package asm

import (
	"aqe/internal/ir"
	"aqe/internal/rt"
)

// Supported reports whether this platform has a native backend.
func Supported() bool { return false }

// Code is never constructed on platforms without a backend.
type Code struct{}

// Compile always fails here; the engine runs the pipeline in bytecode.
func Compile(*ir.Function) (*Code, error) { return nil, ErrUnsupported }

// SizeBytes satisfies the accounting interface; unreachable in practice.
func (c *Code) SizeBytes() int { return 0 }

// NumSlots satisfies the introspection interface; unreachable in practice.
func (c *Code) NumSlots() int { return 0 }

// Run panics: no code can exist to run.
func (c *Code) Run(*rt.Ctx, []uint64) uint64 {
	panic("asm: native execution unsupported on this platform")
}
