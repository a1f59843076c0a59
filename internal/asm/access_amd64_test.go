//go:build amd64 && (linux || darwin)

package asm_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/rt"
)

// firstSeg is the base address of the seeded segment: a fresh Memory's
// first segment is 1.
const firstSeg = uint64(1) << rt.SegShift

// faultAddr runs f natively on a fresh seeded memory and returns the
// address its fault reports, or ok=false when it does not fault.
func faultAddr(t *testing.T, f *ir.Function, args []uint64, seed []byte, funcs func(*rt.Memory) []rt.Func) (addr uint64, ok bool) {
	t.Helper()
	mem := rt.NewMemory()
	mem.AddSegment(append([]byte(nil), seed...))
	ctx := &rt.Ctx{Mem: mem}
	if funcs != nil {
		ctx.Funcs = funcs(mem)
	}
	code, err := asm.Compile(f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s, isStr := r.(string)
		if !isStr || !strings.Contains(s, "out-of-range memory access at") {
			panic(r)
		}
		var err error
		if addr, err = strconv.ParseUint(strings.Fields(s[strings.Index(s, "0x"):])[0], 0, 64); err != nil {
			t.Fatalf("fault message %q: %v", s, err)
		}
		ok = true
	}()
	rt.CatchTrap(func() { code.Run(ctx, args) })
	return 0, false
}

// TestConstBaseAccess drives the constant-segment path: folded GEPs off a
// constant base with a variable index, in range, past the end, negative,
// and far enough to leave the segment, plus a constant address. Each
// must match the interpreter, and each fault must report the exact
// address of the access.
func TestConstBaseAccess(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("constbase", ir.I64)
	b := ir.NewBuilder(f)
	base := b.ConstI64(int64(firstSeg))
	l8 := b.Load(ir.I64, b.GEP(base, f.Params[0], 8, 0))
	l1 := b.Load(ir.I8, b.GEP(base, f.Params[0], 1, 3))
	b.Store(b.GEP(base, f.Params[0], 4, 8), b.Trunc(l8, ir.I32))
	c := b.Load(ir.I64, b.ConstI64(int64(firstSeg+56)))
	b.Ret(b.Add(b.Add(l8, b.ZExt(l1, ir.I64)), c))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i*13 + 1)
	}
	for _, idx := range []uint64{0, 1, 7, 8, 9, 13, ^uint64(0), ^uint64(7), 1 << 45, 1 << 61} {
		diff(t, "constbase", f, []uint64{idx}, seed, nil)
		if idx <= 7 || idx == 1<<61 {
			continue // in range (2^61·8 wraps to offset 0): the i8 load faults instead
		}
		addr, ok := faultAddr(t, f, []uint64{idx}, seed, nil)
		if want := firstSeg + idx*8; !ok || addr != want {
			t.Errorf("constbase(%d): fault at %#x (%v), want %#x", idx, addr, ok, want)
		}
	}
}

// TestChainAccess drives a chain group: one base accessed at constant
// offsets across blocks laid out on sole-predecessor fall-through,
// translated once. Bases near the segment end put later offsets past
// it, which must fault at their exact address, with the side exit's
// spills intact.
func TestChainAccess(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("chain", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	p, x := f.Params[0], f.Params[1]
	mid := b.NewBlock()
	tail := b.NewBlock()
	other := b.NewBlock()
	v0 := b.Load(ir.I64, p)
	b.CondBr(b.ICmp(ir.SGt, x, b.ConstI64(0)), mid, other)
	b.SetBlock(mid)
	v1 := b.Load(ir.I64, b.GEP(p, b.ConstI64(1), 8, 0))
	b.Store(b.GEP(p, b.ConstI64(0), 0, 16), b.Add(v0, v1))
	b.Br(tail)
	b.SetBlock(tail)
	v2 := b.Load(ir.I32, b.GEP(p, b.ConstI64(0), 0, 24))
	b.Store(b.GEP(p, b.ConstI64(0), 0, 63), b.Trunc(v1, ir.I8))
	b.Ret(b.Xor(b.ZExt(v2, ir.I64), x))
	b.SetBlock(other)
	b.Ret(v0)
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i*7 + 3)
	}
	for _, off := range []uint64{0, 8, 32, 40, 44, 48, 56, 64} {
		for _, xv := range []uint64{0, 5} {
			diff(t, "chain", f, []uint64{segBaseToken + off, xv}, seed, nil)
		}
	}
	// 40+24+4 > 64: the i32 load at +24 is the first past the end.
	if addr, ok := faultAddr(t, f, []uint64{firstSeg + 40, 5}, seed, nil); !ok || addr != firstSeg+64 {
		t.Errorf("chain: fault at %#x (%v), want %#x", addr, ok, firstSeg+64)
	}
	_, cs, err := asm.CompileCensus(f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Paths[2] != 1 || cs.Paths[3] != 4 {
		t.Errorf("chain: paths %v, want one translation reused by four accesses", cs.Paths)
	}
}

// TestExternReplacesSegment: an extern between two accesses to one base
// replaces the base's segment (SetSegment, as a growing hash table
// does). The access after the call must read the new bytes, so a
// translation made before it cannot be reused.
func TestExternReplacesSegment(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("swap", ir.I64)
	b := ir.NewBuilder(f)
	p := f.Params[0]
	v0 := b.Load(ir.I64, p)
	b.Store(b.GEP(p, b.ConstI64(0), 0, 8), v0)
	b.Call("swap", ir.Void)
	v1 := b.Load(ir.I64, p)
	v2 := b.Load(ir.I64, b.GEP(p, b.ConstI64(0), 0, 8))
	b.Store(b.GEP(p, b.ConstI64(0), 0, 16), v1)
	b.Ret(b.Add(b.Mul(v1, b.ConstI64(3)), v2))
	funcs := func(mem *rt.Memory) []rt.Func {
		return []rt.Func{func(*rt.Ctx, []uint64) uint64 {
			fresh := make([]byte, 64)
			for i := range fresh {
				fresh[i] = byte(0xa0 + i)
			}
			mem.SetSegment(firstSeg, fresh)
			return 0
		}}
	}
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i)
	}
	diff(t, "swap", f, []uint64{segBaseToken}, seed, funcs)
	diff(t, "swap", f, []uint64{segBaseToken + 48}, seed, funcs)
}

// TestCheckedBranch drives the fused checked-arithmetic group (op + JO)
// for add, sub and mul, branching on overflow into a trap_overflow block
// and into an ordinary block, with values live across the branch.
func TestCheckedBranch(t *testing.T) {
	trapFuncs := func(*rt.Memory) []rt.Func {
		return []rt.Func{func(*rt.Ctx, []uint64) uint64 { rt.Throw(rt.TrapOverflow); return 0 }}
	}
	for _, op := range []ir.Op{ir.OpSAddOvf, ir.OpSSubOvf, ir.OpSMulOvf} {
		for _, trap := range []bool{true, false} {
			m := ir.NewModule("t")
			f := m.NewFunc("checked", ir.I64, ir.I64)
			b := ir.NewBuilder(f)
			x, y := f.Params[0], f.Params[1]
			live := b.Xor(x, b.ConstI64(0x5555))
			var pair *ir.Value
			switch op {
			case ir.OpSAddOvf:
				pair = b.SAddOvf(x, y)
			case ir.OpSSubOvf:
				pair = b.SSubOvf(x, y)
			default:
				pair = b.SMulOvf(x, y)
			}
			v := b.ExtractValue(pair, 0)
			fl := b.ExtractValue(pair, 1)
			cont := b.NewBlock()
			ovf := b.NewBlock()
			b.CondBr(fl, ovf, cont)
			b.SetBlock(ovf)
			var funcs func(*rt.Memory) []rt.Func
			if trap {
				b.Call("trap_overflow", ir.Void)
				funcs = trapFuncs
			}
			b.Ret(b.Add(live, b.ConstI64(0xdead)))
			b.SetBlock(cont)
			b.Ret(b.Add(b.Mul(v, b.ConstI64(3)), live))
			for _, xv := range i64Grid {
				for _, yv := range i64Grid {
					diff(t, fmt.Sprintf("%v/trap=%v", op, trap), f, []uint64{xv, yv}, nil, funcs)
				}
			}
			_, cs, err := asm.CompileCensus(f.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if cs.SETO != 0 {
				t.Errorf("%v: the fused group emits SETO", op)
			}
		}
	}
}

// TestGroupBaseStaleSlot: a chain group whose first access goes through
// an unfolded GEP (two uses: a load and a store, as in a counter bump)
// off a block-local base, with every pool GPR taken. The base has no use
// left after the GEP, so its register may be reclaimed without a store;
// the translation must not read the base's never-written slot, which a
// reused register file fills with an old, valid address.
func TestGroupBaseStaleSlot(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("bump", ir.I64, ir.I64, ir.I64, ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	ps := f.Params
	var busy []*ir.Value
	for i := 1; i <= 4; i++ {
		busy = append(busy, b.Mul(ps[i], b.ConstI64(int64(2*i+1))))
	}
	base := b.Add(ps[0], ps[5])
	addr := b.GEP(base, b.ConstI64(0), 0, 16)
	v := b.Load(ir.I64, addr)
	b.Store(addr, b.Add(v, b.ConstI64(1)))
	sum := v
	for _, x := range busy {
		sum = b.Add(sum, x)
	}
	b.Ret(sum)
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i*11 + 5)
	}
	run := func(native bool) (uint64, []byte) {
		mem := rt.NewMemory()
		seg := mem.AddSegment(append([]byte(nil), seed...))
		ctx := &rt.Ctx{Mem: mem}
		stale := ctx.Regs(256)
		for i := range stale {
			stale[i] = seg // a valid address, 24 bytes below the real base
		}
		args := []uint64{seg + 24, 1, 2, 3, 4, 0}
		var res uint64
		if native {
			code, err := asm.Compile(f.Clone())
			if err != nil {
				t.Fatal(err)
			}
			res = code.Run(ctx, args)
		} else {
			res = interp.Run(f, ctx, args)
		}
		return res, mem.Bytes(seg, len(seed))
	}
	wantRes, wantMem := run(false)
	gotRes, gotMem := run(true)
	if gotRes != wantRes || string(gotMem) != string(wantMem) {
		t.Errorf("bump: native %#x, interp %#x; memory images equal: %v", gotRes, wantRes, string(gotMem) == string(wantMem))
	}
	_, cs, err := asm.CompileCensus(f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Paths[2] != 1 || cs.Paths[3] != 1 {
		t.Errorf("bump: paths %v, want one translation reused once", cs.Paths)
	}
}
