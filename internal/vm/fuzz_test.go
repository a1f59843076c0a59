// The external test package breaks the vm → interp → vm import cycle.
package vm_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/ir/interp"
	"aqe/internal/ir/irtest"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// byteSrc deterministically drives the IR builder from fuzz input.
type byteSrc struct {
	data []byte
	i    int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

// Intn draws a choice in [0, n) from the next input byte.
func (s *byteSrc) Intn(n int) int { return int(s.next()) % n }

// Uint64 draws the next eight input bytes.
func (s *byteSrc) Uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = s.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// FuzzTranslate differentially fuzzes the bytecode translator: any input
// becomes a verified IR function (irtest.Func), which every
// register-allocation strategy must translate without error and execute
// with results, memory effects, traps and faults identical to the direct
// SSA interpreter. Where a native backend exists, the same function is
// also assembled to machine code, plain and optimized, and diffed against
// the same oracle: every access path of the back end (constant segment,
// shared translation, full translation) and its out-of-line fallback.
func FuzzTranslate(f *testing.F) {
	f.Add([]byte("aqe"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add(bytes.Repeat([]byte{14, 15, 7}, 40))          // store/load/shift heavy
	f.Add(bytes.Repeat([]byte{17, 19, 23, 20, 22}, 40)) // chains of constant-offset accesses
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80, 0x7f}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{data: data}
		fn := irtest.Func(src, 4+src.Intn(56))
		if err := fn.Verify(); err != nil {
			t.Fatalf("builder produced invalid IR: %v", err)
		}
		p0, p1 := src.Uint64(), src.Uint64()
		want := irtest.Run(fn, p0, p1, func(ctx *rt.Ctx, args []uint64) uint64 {
			return interp.Run(fn, ctx, args)
		})
		strategies := []vm.Options{
			{Strategy: vm.LoopAware},
			{Strategy: vm.NoReuse},
			{Strategy: vm.Window, WindowSize: 2},
			{Strategy: vm.LoopAware, NoFusion: true},
		}
		for _, opts := range strategies {
			p, err := vm.Translate(fn.Clone(), opts)
			if err != nil {
				t.Fatalf("translate %+v: %v", opts, err)
			}
			if d := irtest.Diff(irtest.Run(fn, p0, p1, p.Run), want); d != "" {
				t.Errorf("%+v: %s", opts, d)
			}
		}
		if asm.Supported() {
			// Both machine-code tiers must agree with the oracle bit for
			// bit: the function as built, and after the optimizing passes.
			// Clone: the unoptimized tier splits critical edges in place.
			for _, level := range []jit.Level{jit.Unoptimized, jit.Optimized} {
				c, err := jit.Compile(fn.Clone(), level, nil)
				if err != nil {
					t.Fatalf("%v compile: %v", level, err)
				}
				if d := irtest.Diff(irtest.Run(fn, p0, p1, c.Run), want); d != "" {
					t.Errorf("%v: %s", level, d)
				}
			}
		}
	})
}
