//go:build amd64 && (linux || darwin)

package asm

import (
	"fmt"
	"sync"
	"unsafe"

	"aqe/internal/rt"
)

// Supported reports whether this platform has a native backend.
func Supported() bool { return true }

// nativeCtx is the communication block shared between the Go driver loop
// and generated code. The first fields form a fixed layout that the
// templates address as [R13+off] (offsets asserted below); the fields
// after args are Go-only bookkeeping.
type nativeCtx struct {
	regs   unsafe.Pointer // register-file base, pinned in R12
	segPtr unsafe.Pointer // segment-table base (24-byte slice headers), pinned in R15
	segLen uint64         // segment count, pinned in RBX
	resume uint64         // code address to (re-)enter at
	exit   uint64         // exit code
	a      uint64         // exit operands (see exit* in compile_amd64.go)
	b      uint64
	c      uint64
	args   [rt.MaxCallArgs]uint64 // staged extern-call arguments

	goSegs [][]byte // keeps the snapshot's backing array reachable for the GC
	code   *Code    // pins the executable mapping while machine code runs
}

func init() {
	var nc nativeCtx
	var bs []byte
	ok := unsafe.Offsetof(nc.regs) == ncRegs &&
		unsafe.Offsetof(nc.segPtr) == ncSegPtr &&
		unsafe.Offsetof(nc.segLen) == ncSegLen &&
		unsafe.Offsetof(nc.resume) == ncResume &&
		unsafe.Offsetof(nc.exit) == ncExit &&
		unsafe.Offsetof(nc.a) == ncA &&
		unsafe.Offsetof(nc.b) == ncB &&
		unsafe.Offsetof(nc.c) == ncC &&
		unsafe.Offsetof(nc.args) == ncArgs &&
		unsafe.Sizeof(bs) == 24 // segment-table stride baked into segSplit and segHeader
	if !ok {
		panic("asm: nativeCtx layout drifted from the machine-code templates")
	}
}

// refresh (re-)snapshots the segment table. Called at entry and after
// every extern call — the only points at which new segments can become
// visible to the running worker (the table itself is copy-on-write).
func (nc *nativeCtx) refresh(mem *rt.Memory) {
	segs := mem.Segs()
	nc.goSegs = segs
	nc.segPtr = unsafe.Pointer(&segs[0]) // table always contains the null segment
	nc.segLen = uint64(len(segs))
}

var ncPool = sync.Pool{New: func() any { return new(nativeCtx) }}

func putNC(nc *nativeCtx) {
	nc.regs = nil
	nc.segPtr = nil
	nc.goSegs = nil
	nc.code = nil
	ncPool.Put(nc)
}

// enter transfers control to nc.resume with the pinned registers loaded
// (implemented in enter_amd64.s). Generated code returns through it after
// writing an exit record into nc.
//
//go:noescape
func enter(nc *nativeCtx)

// Code is a function assembled into executable memory.
type Code struct {
	mem       *execMem
	entry     uintptr
	numSlots  int
	numParams int
}

func newCode(bytes []byte, numSlots, numParams int) (*Code, error) {
	em, err := allocExec(bytes)
	if err != nil {
		return nil, err
	}
	return &Code{mem: em, entry: em.base, numSlots: numSlots, numParams: numParams}, nil
}

// SizeBytes returns the mapped size of the machine code.
func (c *Code) SizeBytes() int { return c.mem.size }

// NumSlots returns the register-file size the code runs against.
func (c *Code) NumSlots() int { return c.numSlots }

// Run executes the function against ctx with the same calling convention
// as the interpreters: args become the leading register
// slots, the result is the returned bit pattern, rt traps unwind via
// rt.Throw. The driver loops re-entering the code after servicing each
// extern-call exit.
func (c *Code) Run(ctx *rt.Ctx, args []uint64) uint64 {
	regs := ctx.Regs(c.numSlots)
	n := c.numParams
	if n > len(args) {
		n = len(args)
	}
	copy(regs[:n], args[:n])
	nc := ncPool.Get().(*nativeCtx)
	nc.regs = unsafe.Pointer(&regs[0])
	nc.code = c
	nc.refresh(ctx.Mem)
	nc.resume = uint64(c.entry)
	for {
		enter(nc)
		switch nc.exit {
		case exitRet:
			ret := nc.c
			putNC(nc)
			return ret
		case exitCall:
			fn := ctx.Funcs[nc.a]
			argc := int(nc.b)
			copy(ctx.Args[:argc], nc.args[:argc])
			res := fn(ctx, ctx.Args[:argc])
			// The extern may have added segments; re-snapshot before
			// resuming.
			nc.refresh(ctx.Mem)
			if nc.c != 0 {
				regs[nc.c-1] = res
			}
		case exitTrap:
			code := rt.TrapCode(nc.a)
			putNC(nc)
			rt.Throw(code)
		default: // exitFault
			addr := nc.a
			putNC(nc)
			// Same failure class as the interpreters' slice bounds panic:
			// not an rt.Trap, so it propagates past CatchTrap.
			panic(fmt.Sprintf("asm: out-of-range memory access at %#x in %s", addr, "native code"))
		}
	}
}
