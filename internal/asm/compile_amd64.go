//go:build amd64 && (linux || darwin)

package asm

import (
	"fmt"
	"math"

	"aqe/internal/ir"
	"aqe/internal/rt"
)

// Fixed layout of nativeCtx as seen from generated code (asserted against
// the Go struct in run_amd64.go's init).
const (
	ncRegs   = 0  // *uint64: register-file base (loaded into R12)
	ncSegPtr = 8  // *[]byte: segment-table base (loaded into R15)
	ncSegLen = 16 // uint64: segment count (loaded into RBX)
	ncResume = 24 // uint64: code address to (re-)enter at
	ncExit   = 32 // uint64: exit code (exitRet..exitFault)
	ncA      = 40 // exit operand: callee index / trap code / faulting address
	ncB      = 48 // exit operand: extern argc
	ncC      = 56 // exit operand: return value / result slot + 1
	ncArgs   = 64 // [16]uint64: staged extern-call arguments
)

// Exit codes written to ncExit before returning to the trampoline.
const (
	exitRet   = 0 // function returned; ncC = result bits
	exitCall  = 1 // extern call; ncA = callee, ncB = argc, ncC = result slot+1, ncResume set
	exitTrap  = 2 // rt trap; ncA = rt.TrapCode
	exitFault = 3 // segmented-memory fault; ncA = faulting address
)

// pmove is one pending φ-move: register-file slot dst receives slot src,
// or the immediate imm when src < 0.
type pmove struct {
	dst, src int32
	imm      uint64
}

// exitStore is one register spill a side exit performs before entering
// the shared trap/fault stub.
type exitStore struct {
	phys int16 // unified location (xmmBase+x for XMM)
	slot int32
}

// sideExit is an out-of-line stub that stores a dirty-register set to
// canonical slots and then jumps to a shared trap/fault exit. Sites with
// identical (target, dirty set) share one stub.
type sideExit struct {
	label, shared int
	stores        []exitStore
}

// compiler is the per-function state of the single emission pass.
type compiler struct {
	a        *asmBuf
	f        *ir.Function
	ra       *regAlloc
	preds    [][]*ir.Block
	slot     []int32     // value ID → register-file slot (-1 = none / constant)
	uses     []int32     // value ID → operand use count
	fused    []bool      // block ID → terminator consumes the flags of the last instr
	ovf      []*ir.Value // block ID → value extract of the checked group ending it (ir.CheckedBranch)
	selFuse  []bool      // value ID → ICmp whose flags feed the immediately following Select
	order    []*ir.Block // emission layout (see layout)
	inherit  []bool      // block ID → sole predecessor is the block laid out before it
	blockL   []int       // block ID → label
	scratch  int32       // cycle-breaking slot for φ-moves
	numSlots int

	// Memory accesses (see planAccesses).
	fold   []bool       // value ID → GEP folded into the access that follows it
	group  []int32      // access value ID → chain group, -1 = none
	groups []chainGroup // in emission order
	slow   []slowAccess // out-of-line full translations of fast accesses
	cs     *census      // nil unless a test asked for one

	trapOvfL, trapDivL, faultL int
	sideExits                  []sideExit
	exitKeys                   map[string]int
	keyBuf                     []byte // reusable side-exit dedup key scratch
}

// Compile lowers an IR function to executable amd64 machine code. It
// mutates f in place (critical-edge splitting only); callers that need
// the original intact pass a clone.
// Functions using an op the templates do not cover return an error
// wrapping ErrUnsupported and the engine leaves the pipeline where it is.
func Compile(f *ir.Function) (*Code, error) { return compile(f, nil) }

// compile is Compile, counting its choices into cs when cs is not nil.
func compile(f *ir.Function, cs *census) (*Code, error) {
	f.SplitCriticalEdges()
	c := &compiler{f: f, cs: cs}
	if err := c.assignSlots(); err != nil {
		return nil, err
	}
	c.preds = f.Preds()
	c.exitKeys = make(map[string]int)
	c.analyze()
	c.layout()
	c.planAccesses()
	// Every block has a label and ends in up to two jumps; every fast
	// access adds two labels and a jump or two, and its fallback two more.
	nb, na := len(f.Blocks), cap(c.slow)
	c.a = newAsmBuf(64+f.NumInstrs()*48, 8+nb+2*na, 8+2*nb+4*na)
	c.ra = newRegAlloc(c)
	c.trapOvfL = c.a.label()
	c.trapDivL = c.a.label()
	c.faultL = c.a.label()
	c.blockL = make([]int, len(f.Blocks))
	for i := range f.Blocks {
		c.blockL[i] = c.a.label()
	}
	for i, b := range c.order {
		if err := c.emitBlock(i, b); err != nil {
			return nil, err
		}
	}
	c.emitStubs()
	return newCode(c.a.finish(), c.numSlots, len(f.Params))
}

// assignSlots gives every SSA value that needs materializing a register-
// file slot: parameters first (matching the calling convention), then
// instruction results in program order. Pair values occupy two adjacent
// slots ({value, flag}); constants are encoded as immediates and get none.
func (c *compiler) assignSlots() error {
	c.slot = make([]int32, c.f.NumValues())
	for i := range c.slot {
		c.slot[i] = -1
	}
	next := int32(0)
	for _, p := range c.f.Params {
		if p.Type == ir.Pair {
			return fmt.Errorf("asm: pair-typed parameter: %w", ErrUnsupported)
		}
		c.slot[p.ID] = next
		next++
	}
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			if in.Type == ir.Void {
				continue
			}
			c.slot[in.ID] = next
			if in.Type == ir.Pair {
				next += 2
			} else {
				next++
			}
		}
	}
	c.scratch = next
	next++
	c.numSlots = int(next)
	return nil
}

// analyze counts operand uses and finds the flag-fusion opportunities:
// per block, whether the terminator can consume the condition flags of
// the block's last instruction directly (ICmp feeding CondBr with no
// other use, or the checked-arithmetic group of §IV-F, whose op then
// branches on OF with JO: no SETO, no pair in slots), and ICmp results
// consumed solely by the immediately following Select, which then
// compiles to CMP+CMOVcc with no SETcc materialization.
func (c *compiler) analyze() {
	c.uses = make([]int32, c.f.NumValues())
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				c.uses[a.ID]++
			}
		}
		if b.Term != nil {
			for _, a := range b.Term.Args {
				c.uses[a.ID]++
			}
		}
	}
	c.fused = make([]bool, len(c.f.Blocks))
	c.ovf = make([]*ir.Value, len(c.f.Blocks))
	c.selFuse = make([]bool, c.f.NumValues())
	for _, b := range c.f.Blocks {
		if _, result := ir.CheckedBranch(b, c.uses); result != nil {
			c.ovf[b.ID] = result
		}
		t := b.Term
		if t != nil && t.Op == ir.OpCondBr && len(b.Instrs) > 0 {
			last := b.Instrs[len(b.Instrs)-1]
			c.fused[b.ID] = last.Op == ir.OpICmp && t.Args[0] == last && c.uses[last.ID] == 1
		}
		for j := 1; j < len(b.Instrs); j++ {
			in, prev := b.Instrs[j], b.Instrs[j-1]
			if in.Op == ir.OpSelect && in.Type != ir.Pair &&
				prev.Op == ir.OpICmp && in.Args[0] == prev && c.uses[prev.ID] == 1 {
				c.selFuse[prev.ID] = true
			}
		}
	}
}

// layout orders the blocks for emission. It walks the function's block
// order, and after each block places its continuation — the target of an
// unconditional branch, or the no-overflow target of a checked group —
// when that block has no other predecessor: the two then form a chain,
// and the continuation inherits its predecessor's registers. Overflow
// targets are laid out last, out of line, so they never break a chain.
// The entry block stays first: the code is entered at offset 0.
func (c *compiler) layout() {
	n := len(c.f.Blocks)
	outOfLine := make([]bool, n)
	for _, b := range c.f.Blocks {
		if c.ovf[b.ID] != nil {
			if t := b.Term.Targets[0]; t != c.f.Blocks[0] {
				outOfLine[t.ID] = true
			}
		}
	}
	placed := make([]bool, n)
	c.order = make([]*ir.Block, 0, n)
	chain := func(b *ir.Block) {
		for b != nil && !placed[b.ID] {
			placed[b.ID] = true
			c.order = append(c.order, b)
			var next *ir.Block
			switch t := b.Term; {
			case t == nil:
			case t.Op == ir.OpBr:
				next = t.Targets[0]
			case c.ovf[b.ID] != nil:
				next = t.Targets[1]
			}
			if next == nil || outOfLine[next.ID] || len(c.preds[next.ID]) != 1 {
				break
			}
			b = next
		}
	}
	for _, b := range c.f.Blocks {
		if !outOfLine[b.ID] {
			chain(b)
		}
	}
	for _, b := range c.f.Blocks {
		chain(b)
	}
	c.inherit = make([]bool, n)
	for i := 1; i < n; i++ {
		b := c.order[i]
		ps := c.preds[b.ID]
		c.inherit[b.ID] = len(ps) == 1 && ps[0] == c.order[i-1]
	}
}

// chainGroup is the accesses of one chain, between two extern calls, off
// one non-constant base at constant offsets. A group of two or more
// translates its base once, at its first access, into two frame slots:
// slot holds the host address of the base, slot+1 the bytes from there
// to the segment's end (negative when the base is past it, or its
// segment is not mapped). Every access of the group then checks its
// offset against the second and addresses off the first.
type chainGroup struct {
	seg  int32 // chain segment: one per chain, and one more per extern call
	n    int32 // accesses
	slot int32 // -1 for a lone access, which translates in full
	done bool  // the translation has been emitted
}

// planAccesses decides, before emission, how each load and store reaches
// memory. A GEP whose only use is the access right after it folds into
// that access's address. An access at a constant offset in [0, 2^31) off
// a non-constant base joins the base's group of its chain segment (see
// chainGroup). The chain is the layout's: the translation is valid from
// the group's first access to the end of the chain, since each later
// block is entered only from the one before it. An extern call ends the
// segment, because it is the only point that refreshes the segment-table
// snapshot, whose backing arrays the cached host addresses point into.
// Groups of one segment use distinct slot pairs; later segments reuse
// them, so the frame grows by the largest segment's needs only.
func (c *compiler) planAccesses() {
	nv := c.f.NumValues()
	c.fold = make([]bool, nv)
	buf := make([]int32, 2*nv)
	c.group = buf[:nv]
	latest := buf[nv:] // base ID → its latest group + 1, open while in its segment
	seg, accesses := int32(0), 0
	for _, b := range c.order {
		if !c.inherit[b.ID] {
			seg++
		}
		for j, in := range b.Instrs {
			c.group[in.ID] = -1
			if in.Op == ir.OpCall {
				seg++
			}
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				continue
			}
			if j > 0 && forwarded(in, b.Instrs[j-1]) {
				continue
			}
			accesses++
			a := in.Args[0]
			if a.IsInstr() && a.Op == ir.OpGEP && j > 0 && b.Instrs[j-1] == a && c.uses[a.ID] == 1 {
				c.fold[a.ID] = true
			}
			base, idx, _, k := addrParts(a)
			if base.IsConst() || idx != nil || !groupOffset(k, accessWidth(in)) {
				continue
			}
			g := latest[base.ID] - 1
			if g < 0 || c.groups[g].seg != seg {
				c.groups = append(c.groups, chainGroup{seg: seg, slot: -1})
				g = int32(len(c.groups) - 1)
				latest[base.ID] = g + 1
			}
			c.groups[g].n++
			c.group[in.ID] = g
		}
	}
	c.slow = make([]slowAccess, 0, accesses)
	cur, next, most := int32(-1), int32(0), int32(0)
	for i := range c.groups {
		g := &c.groups[i]
		if g.n < 2 {
			continue
		}
		if g.seg != cur {
			cur, next = g.seg, 0
		}
		g.slot = int32(c.numSlots) + 2*next
		if c.cs != nil {
			c.cs.groups = append(c.cs.groups, int(g.n))
		}
		next++
		most = max(most, next)
	}
	c.numSlots += 2 * int(most)
}

// addrParts splits an access's address into base + idx*scale + k; idx is
// nil when the address is base + k, as for any address not made by a
// GEP (k = 0) or made by one with a constant index.
func addrParts(a *ir.Value) (base, idx *ir.Value, scale, k uint64) {
	if !a.IsInstr() || a.Op != ir.OpGEP {
		return a, nil, 0, 0
	}
	base, idx, scale, k = a.Args[0], a.Args[1], a.Lit, a.Lit2
	if scale == 0 {
		return base, nil, 0, k
	}
	if idx.IsConst() {
		return base, nil, 0, k + idx.Const*scale
	}
	return base, idx, scale, k
}

// groupOffset reports whether an access of w bytes at offset k from its
// base can be checked against a group's remaining length with one
// sign-extended 32-bit compare.
func groupOffset(k uint64, w int32) bool { return k <= uint64(math.MaxInt32-w) }

// accessWidth is the byte width a load or store moves.
func accessWidth(in *ir.Value) int32 {
	if in.Op == ir.OpLoad {
		return int32(in.Type.Width())
	}
	return int32(in.Args[1].Type.Width())
}

// forwarded reports a load straight after a store to the same address
// value with the same width, which reads the stored register instead of
// memory.
func forwarded(in, prev *ir.Value) bool {
	return in.Op == ir.OpLoad && prev.Op == ir.OpStore &&
		prev.Args[0] == in.Args[0] && int32(prev.Args[1].Type.Width()) == accessWidth(in)
}

// Access paths, as census counts them.
const (
	pathFull      = iota // full translation of the exact address, inline
	pathConstSeg         // constant base: reads its segment's slice header
	pathTranslate        // first access of a chain group: translates the base
	pathCached           // later access of a chain group: reuses the translation
	pathForwarded        // store-to-load forwarded: no memory access
	numPaths
)

// census counts what one compilation chose: the path of every memory
// access, the size of every shared translation's group, and the checked
// ops that still materialize their flag with SETO. Tests compile through
// it; Compile passes none.
type census struct {
	paths  [numPaths]int
	groups []int // accesses of each group that translates its base once
	seto   int
	path   map[int]int // access value ID → path
}

func (c *compiler) count(in *ir.Value, path int) {
	if c.cs != nil {
		c.cs.paths[path]++
		c.cs.path[in.ID] = path
	}
}

// slowAccess is the out-of-line fallback of a fast access: the full
// translation of the access's exact address, the access itself, and a
// jump back. The address is src (a register or a slot) plus k, or the
// immediate k plus RCX when plusRCX is set, or the immediate k alone.
type slowAccess struct {
	label, back, fault int32
	srcReg             int32 // GPR holding the address source, or -1
	srcSlot            int32 // else the source's slot, or -1 for none
	plusRCX            bool
	acc                access
	k                  uint64
}

// access is what an access moves: the load's destination or the stored
// value, in reg (a GPR, or xmmBase+x), or the stored immediate imm when
// reg < 0.
type access struct {
	load bool
	w    int32
	reg  int
	imm  int32
}

// --- operand helpers -------------------------------------------------
//
// The template cases below never touch slots directly; they fetch
// operands and allocate destinations through these helpers, which serve
// cached registers and only fall back to slot traffic.

// ld loads value v into GP register r (immediate or slot read). May
// clobber condition flags (constant zero is XOR), so it must not be used
// between a fused CMP and its consumer.
func (c *compiler) ld(r int, v *ir.Value) {
	if v.IsConst() {
		c.a.movRegImm64(r, v.Const)
		return
	}
	c.a.movRegMem(r, slotMem(int(c.slot[v.ID])))
}

// fld loads an f64 value into XMM register x.
func (c *compiler) fld(x int, v *ir.Value) {
	if v.IsConst() {
		c.a.movRegImm64(rAX, v.Const)
		c.a.movqXR(x, rAX)
		return
	}
	c.a.movsdLoad(x, slotMem(int(c.slot[v.ID])))
}

// ldInto emits v into the specific GP register r, reading a cached
// register when the allocator has one.
func (c *compiler) ldInto(r int, v *ir.Value) {
	if p := c.ra.regOf(v); p >= xmmBase {
		c.a.movqRX(r, p-xmmBase)
		return
	} else if p >= 0 {
		if p != r {
			c.a.movRegReg(r, p)
		}
		return
	}
	c.ld(r, v)
}

// ldIntoNF is ldInto restricted to flag-preserving encodings, for use
// between a fused CMP and its CMOVcc.
func (c *compiler) ldIntoNF(r int, v *ir.Value) {
	if v.IsConst() {
		c.a.movRegImm64NF(r, v.Const)
		return
	}
	c.ldInto(r, v)
}

// use returns a GP register holding v, loading into scratch when it is
// not already cached. Never allocates and never consumes a use slot.
func (c *compiler) use(v *ir.Value, scratch int) int {
	if p := c.ra.regOf(v); p >= 0 && p < xmmBase {
		return p
	}
	c.ldInto(scratch, v)
	return scratch
}

// useNF is use with flag-preserving loads.
func (c *compiler) useNF(v *ir.Value, scratch int) int {
	if p := c.ra.regOf(v); p >= 0 && p < xmmBase {
		return p
	}
	c.ldIntoNF(scratch, v)
	return scratch
}

// useAlloc is use, but a value with further uses in the block is loaded
// into an allocated pool register (clean) instead of scratch, so later
// templates find it cached. excl lists registers the current template
// has already fetched and must not lose.
func (c *compiler) useAlloc(v *ir.Value, scratch int, excl ...int) int {
	if v.IsConst() {
		c.ld(scratch, v)
		return scratch
	}
	if p := c.ra.regOf(v); p >= xmmBase {
		c.a.movqRX(scratch, p-xmmBase)
		return scratch
	} else if p >= 0 {
		return p
	}
	if c.ra.nextUse(v.ID) != noUse {
		p := c.ra.alloc(gprPool, excl...)
		c.a.movRegMem(p, slotMem(int(c.slot[v.ID])))
		c.ra.mapTo(v, p, false)
		return p
	}
	c.a.movRegMem(scratch, slotMem(int(c.slot[v.ID])))
	return scratch
}

// rhs fetches a right-hand operand either into a register or, for a
// last-use value sitting in its slot, as a memory operand so the ALU
// reads it directly. Constants come back as a register (imm32 forms are
// the caller's business).
func (c *compiler) rhs(v *ir.Value, scratch int, excl ...int) (reg int, m mem, inMem bool) {
	if v.IsConst() {
		c.ld(scratch, v)
		return scratch, mem{}, false
	}
	if p := c.ra.regOf(v); p >= xmmBase {
		c.a.movqRX(scratch, p-xmmBase)
		return scratch, mem{}, false
	} else if p >= 0 {
		return p, mem{}, false
	}
	if c.ra.nextUse(v.ID) != noUse {
		p := c.ra.alloc(gprPool, excl...)
		c.a.movRegMem(p, slotMem(int(c.slot[v.ID])))
		c.ra.mapTo(v, p, false)
		return p, mem{}, false
	}
	return 0, slotMem(int(c.slot[v.ID])), true
}

// useX returns an XMM register (index) holding v.
func (c *compiler) useX(v *ir.Value, scratchX int) int {
	if p := c.ra.regOf(v); p >= xmmBase {
		return p - xmmBase
	} else if p >= 0 {
		c.a.movqXR(scratchX, p)
		return scratchX
	}
	c.fld(scratchX, v)
	return scratchX
}

// useAllocX is useAlloc for XMM operands; excl holds XMM indices.
func (c *compiler) useAllocX(v *ir.Value, scratchX int, excl ...int) int {
	if v.IsConst() {
		c.fld(scratchX, v)
		return scratchX
	}
	if p := c.ra.regOf(v); p >= xmmBase {
		return p - xmmBase
	} else if p >= 0 {
		c.a.movqXR(scratchX, p)
		return scratchX
	}
	if c.ra.nextUse(v.ID) != noUse {
		phys := make([]int, len(excl))
		for i, x := range excl {
			phys[i] = xmmBase + x
		}
		p := c.ra.alloc(xmmPool, phys...)
		c.a.movsdLoad(p-xmmBase, slotMem(int(c.slot[v.ID])))
		c.ra.mapTo(v, p, false)
		return p - xmmBase
	}
	c.a.movsdLoad(scratchX, slotMem(int(c.slot[v.ID])))
	return scratchX
}

// defX is regAlloc.defGPR for float destinations; excl holds XMM indices.
func (c *compiler) defX(v *ir.Value, excl ...int) int {
	phys := make([]int, len(excl))
	for i, x := range excl {
		phys[i] = xmmBase + x
	}
	return c.ra.defXMM(v, phys...)
}

// trapLabel returns the branch target for a trap/fault site. With no
// dirty registers the shared stub is jumped to directly; otherwise the
// site gets an out-of-line side exit that first stores the dirty set to
// canonical slots — the flush-at-exit invariant at zero cost on the
// non-trapping path. Identical sites share stubs.
func (c *compiler) trapLabel(shared int) int {
	st := c.ra.dirtySet()
	if len(st) == 0 {
		return shared
	}
	key := c.keyBuf[:0]
	key = append(key, byte(shared), byte(shared>>8))
	for _, s := range st {
		key = append(key, byte(s.phys), byte(s.slot), byte(s.slot>>8), byte(s.slot>>16), byte(s.slot>>24))
	}
	c.keyBuf = key
	// string(key) in the lookup does not allocate; only a miss pays for
	// the retained copies of the key and the store list.
	if l, ok := c.exitKeys[string(key)]; ok {
		return l
	}
	l := c.a.label()
	c.exitKeys[string(key)] = l
	c.sideExits = append(c.sideExits, sideExit{label: l, shared: shared, stores: append([]exitStore(nil), st...)})
	return l
}

// imm32 reports whether v is a constant representable as a sign-extended
// 32-bit immediate.
func imm32(v *ir.Value) (int32, bool) {
	if !v.IsConst() {
		return 0, false
	}
	s := int64(v.Const)
	if s < math.MinInt32 || s > math.MaxInt32 {
		return 0, false
	}
	return int32(s), true
}

// addImm64 adds a 64-bit immediate to r (clobbers RDX for wide values).
func (c *compiler) addImm64(r int, v uint64) {
	if v == 0 {
		return
	}
	s := int64(v)
	if s >= math.MinInt32 && s <= math.MaxInt32 {
		c.a.aluRegImm32(aluAdd, r, int32(s))
		return
	}
	c.a.movRegImm64(rDX, v)
	c.a.aluRegReg(aluAdd, r, rDX)
}

// predCC maps a comparison predicate to the condition code that is true
// after CMP x, y.
func predCC(p ir.Pred) byte {
	switch p {
	case ir.Eq:
		return ccE
	case ir.Ne:
		return ccNE
	case ir.SLt:
		return ccL
	case ir.SLe:
		return ccLE
	case ir.SGt:
		return ccG
	case ir.SGe:
		return ccGE
	case ir.ULt:
		return ccB
	case ir.ULe:
		return ccBE
	case ir.UGt:
		return ccA
	}
	return ccAE // UGe
}

func (c *compiler) emitBlock(i int, b *ir.Block) error {
	c.a.bind(c.blockL[b.ID])
	// A block whose only predecessor is the block just emitted is entered
	// with exactly the emission-end machine state (the terminator path
	// emits MOVs and jumps only), so cached clean values carry across — the
	// extended-basic-block case. Everything else starts from canonical
	// slots.
	c.ra.begin(b, c.inherit[b.ID])
	for j, in := range b.Instrs {
		if in.Op == ir.OpPhi {
			if in.Type == ir.Pair {
				return fmt.Errorf("asm: pair-typed phi: %w", ErrUnsupported)
			}
			continue // materialized by predecessor φ-moves
		}
		var prev *ir.Value
		if j > 0 {
			prev = b.Instrs[j-1]
		}
		if err := c.emitInstr(in, b, prev); err != nil {
			return err
		}
	}
	var next *ir.Block
	if i+1 < len(c.order) {
		next = c.order[i+1]
	}
	return c.emitTerm(b, next)
}

// emitCmp emits CMP for x against y (immediate or slot memory operand
// when possible), setting the condition flags for predCC.
func (c *compiler) emitCmp(x, y *ir.Value) {
	xr := c.useAlloc(x, rAX)
	if v, ok := imm32(y); ok {
		c.a.aluRegImm32(aluCmp, xr, v)
		return
	}
	yr, ym, ymem := c.rhs(y, rCX, xr)
	if ymem {
		c.a.aluRegMem(aluCmp, xr, ym)
	} else {
		c.a.aluRegReg(aluCmp, xr, yr)
	}
}

// segTranslate expects a segmented address in RAX and emits its full
// translation: split it (segSplit), bounds-check offset+width against the
// segment's length in the table at R15, and load the segment's data
// pointer. It leaves the data pointer in RCX and offset+width in RDX, so
// the access is [RCX+RDX-width] (transMem). Faults jump to faultL (the
// shared stub or a dirty-spilling side exit) with the address still in
// RAX. Uses only RAX, RCX and RDX: every pool register survives it.
// Every fast access's fallback emits one, so it is stamped from a
// stencil encoded once per width.
func (c *compiler) segTranslate(width int32, faultL int) {
	c.a.stamp(&segStencils[width], faultL)
}

// segStencils holds segTranslate's encoding for each access width; an
// access of any other width is unsupported (emitAccess).
var segStencils = func() (st [9]stencil) {
	for _, w := range []int32{1, 2, 4, 8} {
		c := &compiler{a: newAsmBuf(64, 1, 2)}
		c.encodeSegTranslate(w, c.a.label())
		st[w] = c.a.stencil()
	}
	return st
}()

func (c *compiler) encodeSegTranslate(width int32, faultL int) {
	c.segSplit(faultL)
	c.a.aluRegImm32(aluAdd, rDX, width)
	c.a.aluRegMem(aluCmp, rDX, segField(8)) // length
	c.a.jcc(ccA, faultL)
	c.a.movRegMem(rCX, segField(0)) // data pointer
}

// segSplit splits the segmented address in RAX, which it leaves intact:
// the segment index, checked against the count in RBX (an unmapped
// segment jumps to fail), becomes the index of its slice header in RCX
// (segField addresses the header's fields), and the 48-bit offset goes to
// RDX. The one place that knows the table's layout.
func (c *compiler) segSplit(fail int) {
	c.a.movRegReg(rCX, rAX)
	c.a.shiftImm(5, rCX, 48) // shr: segment index
	c.a.aluRegReg(aluCmp, rCX, rBX)
	c.a.jcc(ccAE, fail)
	c.a.leaRegMem(rCX, mem{base: rCX, index: rCX, scale: 2}) // ×3: slice headers are 24 bytes
	c.a.movRegReg(rDX, rAX)
	c.a.shiftImm(4, rDX, 16) // shl
	c.a.shiftImm(5, rDX, 16) // shr: 48-bit offset
}

// segField addresses field off (0 data pointer, 8 length) of the slice
// header segSplit indexed in RCX.
func segField(off int32) mem { return mem{base: r15, index: rCX, scale: 8, disp: off} }

// transMem addresses the bytes segTranslate found.
func transMem(width int32) mem { return mem{base: rCX, index: rDX, scale: 1, disp: -width} }

// segHeader addresses field off (0 data pointer, 8 length) of constant
// segment s's slice header in the snapshot at R15.
func segHeader(s uint64, off int32) mem { return memBD(r15, int32(s)*24+off) }

func (c *compiler) emitInstr(in *ir.Value, b *ir.Block, prev *ir.Value) error {
	if in.Op == ir.OpGEP && c.fold[in.ID] {
		return nil // its access computes the address
	}
	if r := c.ovf[b.ID]; r != nil && (in == r || in == b.Term.Args[0]) {
		return nil // the checked op defined the value; the flag is OF
	}
	c.ra.consume(in)
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		c.emitALU(in.Op, in, in.Args[0], in.Args[1])

	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		ext := map[ir.Op]int{ir.OpShl: 4, ir.OpLShr: 5, ir.OpAShr: 7}[in.Op]
		x := c.useAlloc(in.Args[0], rAX)
		if y := in.Args[1]; y.IsConst() {
			dst := c.ra.defGPR(in)
			if dst != x {
				c.a.movRegReg(dst, x)
			}
			if n := byte(y.Const & 63); n != 0 {
				c.a.shiftImm(ext, dst, n)
			}
		} else {
			c.ldInto(rCX, y)
			dst := c.ra.defGPR(in)
			if dst != x {
				c.a.movRegReg(dst, x)
			}
			c.a.shiftCL(ext, dst) // hardware masks CL to 6 bits, matching the VM's &63
		}

	case ir.OpSDiv:
		c.ldInto(rCX, in.Args[1])
		divL := c.trapLabel(c.trapDivL)
		ovfL := c.trapLabel(c.trapOvfL)
		c.a.testRegReg(rCX, rCX)
		c.a.jcc(ccE, divL)
		c.ldInto(rAX, in.Args[0])
		ok := c.a.label()
		c.a.aluRegImm32(aluCmp, rCX, -1)
		c.a.jcc(ccNE, ok)
		c.a.movRegImm64(rDX, 0x8000000000000000)
		c.a.aluRegReg(aluCmp, rAX, rDX)
		c.a.jcc(ccE, ovfL) // MinInt64 / -1 overflows
		c.a.bind(ok)
		c.a.cqo()
		c.a.idivReg(rCX)
		dst := c.ra.defGPR(in)
		if dst != rAX {
			c.a.movRegReg(dst, rAX)
		}

	case ir.OpSRem:
		c.ldInto(rCX, in.Args[1])
		divL := c.trapLabel(c.trapDivL)
		c.a.testRegReg(rCX, rCX)
		c.a.jcc(ccE, divL)
		c.ldInto(rAX, in.Args[0])
		ok, done := c.a.label(), c.a.label()
		c.a.aluRegImm32(aluCmp, rCX, -1)
		c.a.jcc(ccNE, ok)
		c.a.movRegImm64(rAX, 0) // n % -1 = 0 for all n (Go semantics; avoids IDIV #DE)
		c.a.jmp(done)
		c.a.bind(ok)
		c.a.cqo()
		c.a.idivReg(rCX)
		c.a.movRegReg(rAX, rDX)
		c.a.bind(done)
		dst := c.ra.defGPR(in)
		if dst != rAX {
			c.a.movRegReg(dst, rAX)
		}

	case ir.OpUDiv, ir.OpURem:
		c.ldInto(rCX, in.Args[1])
		divL := c.trapLabel(c.trapDivL)
		c.a.testRegReg(rCX, rCX)
		c.a.jcc(ccE, divL)
		c.ldInto(rAX, in.Args[0])
		c.a.movRegImm64(rDX, 0)
		c.a.divReg(rCX)
		res := rAX
		if in.Op == ir.OpURem {
			res = rDX
		}
		dst := c.ra.defGPR(in)
		if dst != res {
			c.a.movRegReg(dst, res)
		}

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		op := map[ir.Op]sseOp{ir.OpFAdd: sseAdd, ir.OpFSub: sseSub,
			ir.OpFMul: sseMul, ir.OpFDiv: sseDiv}[in.Op]
		x := c.useAllocX(in.Args[0], 0)
		y := c.useAllocX(in.Args[1], 1, x)
		dst := c.defX(in, y)
		if dst != x {
			c.a.movsdRegReg(dst, x)
		}
		c.a.sseArith(op, dst, y)

	case ir.OpICmp:
		c.emitCmp(in.Args[0], in.Args[1])
		if c.fused[b.ID] && in == b.Instrs[len(b.Instrs)-1] {
			return nil // flags consumed directly by the CondBr
		}
		if c.selFuse[in.ID] {
			return nil // flags consumed by the following Select's CMOVcc
		}
		c.a.setcc(predCC(in.Pred), rAX)
		dst := c.ra.defGPR(in)
		c.a.movzxRegReg8(dst, rAX)

	case ir.OpFCmp:
		// Ordered float semantics: any comparison with NaN is false.
		switch in.Pred {
		case ir.Eq:
			x := c.useX(in.Args[0], 0)
			y := c.useX(in.Args[1], 1)
			c.a.ucomisd(x, y)
			c.a.setcc(ccNP, rCX)
			c.a.setcc(ccE, rAX)
			c.a.andRegReg8(rAX, rCX)
		case ir.Ne:
			x := c.useX(in.Args[0], 0)
			y := c.useX(in.Args[1], 1)
			c.a.ucomisd(x, y)
			c.a.setcc(ccP, rCX)
			c.a.setcc(ccNE, rAX)
			c.a.orRegReg8(rAX, rCX)
		case ir.SGt, ir.SGe:
			x := c.useX(in.Args[0], 0)
			y := c.useX(in.Args[1], 1)
			c.a.ucomisd(x, y)
			c.a.setcc(map[ir.Pred]byte{ir.SGt: ccA, ir.SGe: ccAE}[in.Pred], rAX)
		case ir.SLt, ir.SLe:
			// Swap operands so CF/ZF encode the answer NaN-correctly.
			x := c.useX(in.Args[1], 0)
			y := c.useX(in.Args[0], 1)
			c.a.ucomisd(x, y)
			c.a.setcc(map[ir.Pred]byte{ir.SLt: ccA, ir.SLe: ccAE}[in.Pred], rAX)
		default:
			return fmt.Errorf("asm: fcmp %v: %w", in.Pred, ErrUnsupported)
		}
		dst := c.ra.defGPR(in)
		c.a.movzxRegReg8(dst, rAX)

	case ir.OpSAddOvf, ir.OpSSubOvf, ir.OpSMulOvf:
		if r := c.ovf[b.ID]; r != nil && r.Args[0] == in {
			// The group's value extract takes the result; the terminator
			// branches on the OF the op leaves.
			op := ir.OpAdd
			switch in.Op {
			case ir.OpSSubOvf:
				op = ir.OpSub
			case ir.OpSMulOvf:
				op = ir.OpMul
			}
			c.emitALU(op, r, in.Args[0], in.Args[1])
			return nil
		}
		if c.cs != nil {
			c.cs.seto++
		}
		c.ldInto(rAX, in.Args[0])
		y := c.use(in.Args[1], rCX)
		switch in.Op {
		case ir.OpSAddOvf:
			c.a.aluRegReg(aluAdd, rAX, y)
		case ir.OpSSubOvf:
			c.a.aluRegReg(aluSub, rAX, y)
		default:
			c.a.imulRegReg(rAX, y)
		}
		c.a.setcc(ccO, rDX)
		c.a.movzxRegReg8(rDX, rDX)
		s := int(c.slot[in.ID])
		c.a.movMemReg(slotMem(s), rAX)
		c.a.movMemReg(slotMem(s+1), rDX)

	case ir.OpExtractValue:
		dst := c.ra.defGPR(in)
		c.a.movRegMem(dst, slotMem(int(c.slot[in.Args[0].ID])+int(in.Lit)))

	case ir.OpSExt:
		x := c.use(in.Args[0], rAX)
		dst := c.ra.defGPR(in)
		switch in.Args[0].Type {
		case ir.I1, ir.I8:
			c.a.movsxRegReg8(dst, x)
		case ir.I16:
			c.a.movsxRegReg16(dst, x)
		case ir.I32:
			c.a.movsxdRegReg(dst, x)
		default:
			if dst != x {
				c.a.movRegReg(dst, x)
			}
		}

	case ir.OpZExt:
		x := c.use(in.Args[0], rAX) // slots already hold canonical zero-extended bits
		dst := c.ra.defGPR(in)
		if dst != x {
			c.a.movRegReg(dst, x)
		}

	case ir.OpTrunc:
		x := c.use(in.Args[0], rAX)
		dst := c.ra.defGPR(in)
		switch in.Type {
		case ir.I1, ir.I8:
			c.a.movzxRegReg8(dst, x) // the VM truncates i1 with &0xff too
		case ir.I16:
			c.a.movzxRegReg16(dst, x)
		case ir.I32:
			c.a.movRegReg32(dst, x)
		default:
			if dst != x {
				c.a.movRegReg(dst, x)
			}
		}

	case ir.OpSIToFP:
		x := c.use(in.Args[0], rAX)
		dst := c.defX(in)
		c.a.xorps(dst) // CVTSI2SD merges: break the false dep on dst
		c.a.cvtsi2sd(dst, x)

	case ir.OpFPToSI:
		x := c.useX(in.Args[0], 0)
		dst := c.ra.defGPR(in)
		c.a.cvttsd2si(dst, x) // CVTTSD2SI is exactly Go's int64(float64) on amd64

	case ir.OpLoad, ir.OpStore:
		return c.emitAccess(in, prev)

	case ir.OpGEP:
		x := c.useAlloc(in.Args[0], rAX)
		if idx := in.Args[1]; idx.IsConst() {
			dst := c.ra.defGPR(in)
			if dst != x {
				c.a.movRegReg(dst, x)
			}
			c.addImm64(dst, idx.Const*in.Lit+in.Lit2)
		} else if in.Lit == 0 {
			dst := c.ra.defGPR(in)
			if dst != x {
				c.a.movRegReg(dst, x)
			}
			c.addImm64(dst, in.Lit2)
		} else {
			iv := c.use(idx, rCX)
			scaled := iv
			if in.Lit != 1 {
				if s := int64(in.Lit); s >= math.MinInt32 && s <= math.MaxInt32 {
					c.a.imulRegRegImm32(rCX, iv, int32(s))
				} else {
					c.a.movRegImm64(rDX, in.Lit)
					if iv != rCX {
						c.a.movRegReg(rCX, iv)
					}
					c.a.imulRegReg(rCX, rDX)
				}
				scaled = rCX
			}
			dst := c.ra.defGPR(in, scaled)
			if dst != x {
				c.a.movRegReg(dst, x)
			}
			c.a.aluRegReg(aluAdd, dst, scaled)
			c.addImm64(dst, in.Lit2)
		}

	case ir.OpSelect:
		if in.Type == ir.Pair {
			return fmt.Errorf("asm: pair-typed select: %w", ErrUnsupported)
		}
		if cond := in.Args[0]; !cond.IsConst() && c.selFuse[cond.ID] {
			// The CMP was just emitted by the preceding ICmp; everything
			// between it and the CMOVcc must preserve flags (spills and
			// the NF loads are all MOVs).
			tv := c.useNF(in.Args[1], rAX)
			dst := c.ra.defGPR(in, tv)
			c.ldIntoNF(dst, in.Args[2])
			c.a.cmovcc(predCC(cond.Pred), dst, tv)
			return nil
		}
		tv := c.useAlloc(in.Args[1], rAX)
		cv := c.use(in.Args[0], rDX)
		dst := c.ra.defGPR(in, tv, cv)
		c.ldInto(dst, in.Args[2])
		c.a.testRegReg(cv, cv)
		c.a.cmovcc(ccNE, dst, tv) // cond != 0 → then value

	case ir.OpCall:
		if len(in.Args) > rt.MaxCallArgs {
			return fmt.Errorf("asm: call with %d args: %w", len(in.Args), ErrUnsupported)
		}
		for i, arg := range in.Args {
			r := c.use(arg, rAX)
			c.a.movMemReg(memBD(r13, ncArgs+int32(i)*8), r)
		}
		// The extern observes and may rewrite any slot from Go, so the
		// frame must be canonical and every cached location is stale after
		// the exit.
		c.ra.flushAll()
		c.ra.invalidateAll()
		c.a.movMemImm32(memBD(r13, ncExit), exitCall)
		c.a.movMemImm32(memBD(r13, ncA), int32(in.Callee))
		c.a.movMemImm32(memBD(r13, ncB), int32(len(in.Args)))
		dst := int32(0)
		if in.Type != ir.Void {
			dst = c.slot[in.ID] + 1
		}
		c.a.movMemImm32(memBD(r13, ncC), dst)
		cont := c.a.label()
		c.a.leaRIP(rAX, cont)
		c.a.movMemReg(memBD(r13, ncResume), rAX)
		c.a.ret()
		c.a.bind(cont)

	default:
		return fmt.Errorf("asm: op %v: %w", in.Op, ErrUnsupported)
	}
	return nil
}

// emitAccess emits a load or a store along the path planAccesses chose;
// loads and stores differ only in the direction of the final move.
//
//   - Constant base: a constant address, or a folded GEP off a constant
//     base, knows its segment s, so it checks s against RBX and its offset
//     against the length in s's slice header at [R15+24·s], and addresses
//     off the header's data pointer.
//   - Chain group: the group's first access translates the base into its
//     two slots; every access compares its offset against the remaining
//     length and addresses off the host address.
//   - Otherwise, the full translation of the exact address, inline.
//
// A fast access that fails its check is not provably inside its segment:
// it takes the full translation of its exact address out of line, which
// faults with today's address, side exit and spill set, or performs the
// access (a GEP may step into another segment) and jumps back.
func (c *compiler) emitAccess(in, prev *ir.Value) error {
	load := in.Op == ir.OpLoad
	w := accessWidth(in)
	if int(w) >= len(segStencils) || segStencils[w].code == nil {
		ty := in.Type
		if !load {
			ty = in.Args[1].Type
		}
		return fmt.Errorf("asm: %v of %v: %w", in.Op, ty, ErrUnsupported)
	}
	if prev != nil && forwarded(in, prev) {
		// Store-to-load forwarding: the load must see exactly the stored
		// bytes, so the memory access (and its fault check, which the
		// store already passed) is replaced by a register move. The store
		// itself still executes, keeping the memory image identical.
		c.count(in, pathForwarded)
		c.forward(in, prev.Args[1], w)
		return nil
	}
	addr := in.Args[0]
	base, idx, scale, k := addrParts(addr)
	folded := addr.IsInstr() && c.fold[addr.ID]
	// src+srcK rebuilds the exact address off the fast path: the held GEP's
	// base, or the address value itself when no GEP is folded into it.
	src, srcK := addr, uint64(0)
	if folded || addr == base {
		src, srcK = base, k
	}
	var excl []int
	if p := c.ra.regOf(src); p >= 0 {
		excl = []int{p} // an address is an i64, never in an XMM register
	}
	x := access{load: load, w: w}
	if !load {
		// Before the fault label: loading the value may take a register
		// whose old occupant the label's dirty set would store.
		x.reg, x.imm = c.storeSrc(in.Args[1], w, excl...)
	}
	fl := c.trapLabel(c.faultL)
	if load && in.Type == ir.F64 {
		x.reg = xmmBase + c.defX(in)
	} else if load {
		x.reg = c.ra.defGPR(in, excl...)
	}
	g := int32(-1)
	if c.group[in.ID] >= 0 && c.groups[c.group[in.ID]].slot >= 0 {
		g = c.group[in.ID]
	}
	switch {
	case base.IsConst() && idx == nil && groupOffset((base.Const+k)&rt.OffMask, w):
		a := base.Const + k
		s, off := a>>rt.SegShift, int32(a&rt.OffMask)
		slow := c.a.label()
		c.a.aluRegImm32(aluCmp, rBX, int32(s))
		c.a.jcc(ccBE, slow)
		c.a.aluMemImm32(aluCmp, segHeader(s, 8), off+w)
		c.a.jcc(ccB, slow) // length < offset+width
		c.a.movRegMem(rDX, segHeader(s, 0))
		c.move(x, memBD(rDX, off))
		c.slowPath(slow, x, fl, nil, a, false)
		c.count(in, pathConstSeg)

	case base.IsConst() && idx != nil && folded:
		s := base.Const >> rt.SegShift
		c.offsetInto(idx, scale, base.Const&rt.OffMask+k)
		slow := c.a.label()
		c.a.aluRegImm32(aluCmp, rBX, int32(s))
		c.a.jcc(ccBE, slow)
		c.a.movRegMem(rDX, segHeader(s, 8))
		c.a.aluRegImm32(aluSub, rDX, w)
		c.a.jcc(ccB, slow) // length < width
		c.a.aluRegReg(aluCmp, rCX, rDX)
		c.a.jcc(ccA, slow) // offset > length-width, negative offsets included
		c.a.movRegMem(rDX, segHeader(s, 0))
		c.move(x, mem{base: rDX, index: rCX, scale: 1})
		c.slowPath(slow, x, fl, nil, s<<rt.SegShift, true)
		c.count(in, pathConstSeg)

	case g >= 0:
		gr := &c.groups[g]
		if !gr.done {
			gr.done = true
			c.translateBase(src, srcK-k, gr.slot)
			c.count(in, pathTranslate)
		} else {
			c.count(in, pathCached)
		}
		slow := c.a.label()
		c.a.aluMemImm32(aluCmp, slotMem(int(gr.slot+1)), int32(k)+w)
		c.a.jcc(ccL, slow) // remaining < offset+width, signed
		c.a.movRegMem(rDX, slotMem(int(gr.slot)))
		c.move(x, memBD(rDX, int32(k)))
		c.slowPath(slow, x, fl, src, srcK, false)

	default:
		if folded {
			c.addrInto(base, idx, scale, k)
		} else {
			c.ldInto(rAX, addr)
		}
		c.segTranslate(w, fl)
		c.move(x, transMem(w))
		c.count(in, pathFull)
	}
	return nil
}

// forward emits a forwarded load of w bytes: in takes the stored value v.
func (c *compiler) forward(in, v *ir.Value, w int32) {
	if in.Type == ir.F64 {
		src := c.useX(v, 0)
		dst := c.defX(in)
		if dst != src {
			c.a.movsdRegReg(dst, src)
		}
		return
	}
	src := c.use(v, rAX)
	dst := c.ra.defGPR(in)
	switch w {
	case 1:
		c.a.movzxRegReg8(dst, src)
	case 2:
		c.a.movzxRegReg16(dst, src)
	case 4:
		c.a.movRegReg32(dst, src)
	default:
		if dst != src {
			c.a.movRegReg(dst, src)
		}
	}
}

// storeSrc returns where a store's value comes from: the pool register
// (GPR or XMM) caching it, or, with reg -1, a sign-extended 32-bit
// immediate for a qword store. Any other value is loaded into a pool
// register, which keeps it if the block reads it again. Never a scratch
// register: the store's translation uses all three.
func (c *compiler) storeSrc(v *ir.Value, w int32, excl ...int) (reg int, imm int32) {
	if v.IsConst() {
		if iv, ok := imm32(v); ok && w == 8 {
			return -1, iv
		}
		p := c.ra.alloc(gprPool, excl...)
		c.a.movRegImm64(p, v.Const)
		return p, 0
	}
	if p := c.ra.regOf(v); p >= 0 {
		return p, 0
	}
	p := c.ra.alloc(gprPool, excl...)
	c.a.movRegMem(p, slotMem(int(c.slot[v.ID])))
	if c.ra.nextUse(v.ID) != noUse {
		c.ra.mapTo(v, p, false)
	}
	return p, 0
}

// move emits the access's one memory move at m.
func (c *compiler) move(x access, m mem) {
	switch {
	case x.load && x.reg >= xmmBase:
		c.a.movsdLoad(x.reg-xmmBase, m)
	case x.load && x.w == 1:
		c.a.movzxRegMem8(x.reg, m)
	case x.load && x.w == 2:
		c.a.movzxRegMem16(x.reg, m)
	case x.load && x.w == 4:
		c.a.movRegMem32(x.reg, m)
	case x.load:
		c.a.movRegMem(x.reg, m)
	case x.reg < 0:
		c.a.movMemImm32(m, x.imm)
	case x.reg >= xmmBase:
		c.a.movsdStore(m, x.reg-xmmBase)
	case x.w == 1:
		c.a.movMemReg8(m, x.reg)
	case x.w == 2:
		c.a.movMemReg16(m, x.reg)
	case x.w == 4:
		c.a.movMemReg32(m, x.reg)
	default:
		c.a.movMemReg(m, x.reg)
	}
}

// slowPath records the out-of-line full translation that the fast
// access ending here branches to at label l, and binds the point it
// jumps back to. The exact address is src+k (src in its register or slot
// as it is now, after every allocation the access made), or the
// immediate k, plus RCX when plusRCX.
func (c *compiler) slowPath(l int, x access, fault int, src *ir.Value, k uint64, plusRCX bool) {
	sa := slowAccess{label: int32(l), back: int32(c.a.label()), fault: int32(fault), acc: x,
		srcReg: -1, srcSlot: -1, plusRCX: plusRCX, k: k}
	if src != nil {
		if p := c.ra.regOf(src); p >= 0 {
			sa.srcReg = int32(p)
		} else {
			sa.srcSlot = c.slot[src.ID]
		}
	}
	c.a.bind(int(sa.back))
	c.slow = append(c.slow, sa)
}

// translateBase translates a group's base, src+delta, into its slots:
// the host address at slot, the bytes left in its segment from there at
// slot+1. src is the access's own address operand, or the base of the GEP
// folded into it, so it is live here; the base itself may not be (an
// unfolded GEP was its last use). A base whose segment is not in the
// table leaves -1 remaining, so every access of the group takes its slow
// path.
func (c *compiler) translateBase(src *ir.Value, delta uint64, slot int32) {
	c.ldInto(rAX, src)
	c.addImm64(rAX, delta)
	c.a.movMemImm32(slotMem(int(slot+1)), -1)
	done := c.a.label()
	c.segSplit(done)
	c.a.movRegMem(rAX, segField(8))
	c.a.aluRegReg(aluSub, rAX, rDX)
	c.a.movMemReg(slotMem(int(slot+1)), rAX)
	c.a.movRegMem(rAX, segField(0))
	c.a.aluRegReg(aluAdd, rAX, rDX)
	c.a.movMemReg(slotMem(int(slot)), rAX)
	c.a.bind(done)
}

// offsetInto computes idx*scale + d into RCX (RDX is scratch).
func (c *compiler) offsetInto(idx *ir.Value, scale, d uint64) {
	ix := c.use(idx, rCX)
	if sd := int64(d); sd >= math.MinInt32 && sd <= math.MaxInt32 {
		switch scale {
		case 1:
			c.a.leaRegMem(rCX, memBD(ix, int32(sd)))
			return
		case 2, 4, 8:
			c.a.leaRegMem(rCX, mem{base: -1, index: ix, scale: byte(scale), disp: int32(sd)})
			return
		}
	}
	if s := int64(scale); s >= math.MinInt32 && s <= math.MaxInt32 {
		c.a.imulRegRegImm32(rCX, ix, int32(s))
	} else {
		c.a.movRegImm64(rDX, scale)
		if ix != rCX {
			c.a.movRegReg(rCX, ix)
		}
		c.a.imulRegReg(rCX, rDX)
	}
	c.addImm64(rCX, d)
}

// addrInto computes a folded GEP's address, base + idx*scale + k, into
// RAX (RCX and RDX are scratch).
func (c *compiler) addrInto(base, idx *ir.Value, scale, k uint64) {
	if idx == nil {
		c.ldInto(rAX, base)
		c.addImm64(rAX, k)
		return
	}
	c.offsetInto(idx, scale, k)
	br := c.use(base, rAX)
	c.a.leaRegMem(rAX, mem{base: br, index: rCX, scale: 1})
}

// emitALU emits def = x op y for an integer add, sub, mul, and, or or
// xor, leaving the flags of the operation itself (OF for a checked op).
func (c *compiler) emitALU(op ir.Op, def, x, y *ir.Value) {
	xr := c.useAlloc(x, rAX)
	if v, ok := imm32(y); ok {
		dst := c.ra.defGPR(def)
		if op == ir.OpMul {
			c.a.imulRegRegImm32(dst, xr, v)
			return
		}
		if dst != xr {
			c.a.movRegReg(dst, xr)
		}
		c.a.aluRegImm32(aluOpFor(op), dst, v)
		return
	}
	yr, ym, ymem := c.rhs(y, rCX, xr)
	dst := c.ra.defGPR(def, yr)
	if dst != xr {
		c.a.movRegReg(dst, xr)
	}
	switch {
	case op == ir.OpMul && ymem:
		c.a.imulRegMem(dst, ym)
	case op == ir.OpMul:
		c.a.imulRegReg(dst, yr)
	case ymem:
		c.a.aluRegMem(aluOpFor(op), dst, ym)
	default:
		c.a.aluRegReg(aluOpFor(op), dst, yr)
	}
}

func aluOpFor(op ir.Op) aluOp {
	switch op {
	case ir.OpAdd:
		return aluAdd
	case ir.OpSub:
		return aluSub
	case ir.OpAnd:
		return aluAnd
	case ir.OpOr:
		return aluOr
	}
	return aluXor
}

func (c *compiler) emitTerm(b *ir.Block, next *ir.Block) error {
	t := b.Term
	if t == nil {
		return fmt.Errorf("asm: block without terminator: %w", ErrUnsupported)
	}
	c.ra.consume(t)
	switch t.Op {
	case ir.OpBr:
		c.ra.endBlock()
		c.emitMoves(c.phiMoves(b))
		if t.Targets[0] != next {
			c.a.jmp(c.blockL[t.Targets[0].ID])
		}

	case ir.OpCondBr:
		thenB, elseB := t.Targets[0], t.Targets[1]
		thenL, elseL := c.blockL[thenB.ID], c.blockL[elseB.ID]
		var cc byte
		cv := -1
		if c.fused[b.ID] {
			// Flags were set by the CMP at the end of the block; the
			// flush and φ-moves below use only MOV encodings so they
			// survive.
			cc = predCC(b.Instrs[len(b.Instrs)-1].Pred)
		} else if c.ovf[b.ID] != nil {
			cc = ccO // set by the checked op, and as safe as a CMP's
		} else {
			// Fetch before the flush: endBlock may drop the mapping of a
			// dead condition value, but the register contents survive.
			cv = c.use(t.Args[0], rDX)
		}
		c.ra.endBlock()
		c.emitMoves(c.phiMoves(b))
		if cv >= 0 {
			c.a.testRegReg(cv, cv)
			cc = ccNE // taken when cond != 0
		}
		switch {
		case elseB == next:
			c.a.jcc(cc, thenL)
		case thenB == next:
			c.a.jcc(cc^1, elseL) // inverted condition code
		default:
			c.a.jcc(cc, thenL)
			c.a.jmp(elseL)
		}

	case ir.OpRet:
		r := c.use(t.Args[0], rAX)
		c.a.movMemReg(memBD(r13, ncC), r)
		c.ra.endBlock()
		c.a.movMemImm32(memBD(r13, ncExit), exitRet)
		c.a.ret()

	case ir.OpRetVoid:
		c.ra.endBlock()
		c.a.movMemImm32(memBD(r13, ncC), 0)
		c.a.movMemImm32(memBD(r13, ncExit), exitRet)
		c.a.ret()

	default:
		return fmt.Errorf("asm: terminator %v: %w", t.Op, ErrUnsupported)
	}
	return nil
}

// phiMoves collects the parallel copies this block owes its successors'
// φ-nodes. Critical edges were split, so emitting the union for all
// successors on every exit is sound: a successor with φ-nodes has this
// block as its only predecessor.
func (c *compiler) phiMoves(b *ir.Block) []pmove {
	var moves []pmove
	for _, s := range b.Succs() {
		for _, phi := range s.Phis() {
			for i, in := range phi.Incoming {
				if in != b {
					continue
				}
				dst := c.slot[phi.ID]
				if arg := phi.Args[i]; arg.IsConst() {
					moves = append(moves, pmove{dst: dst, src: -1, imm: arg.Const})
				} else if c.slot[arg.ID] != dst {
					moves = append(moves, pmove{dst: dst, src: c.slot[arg.ID]})
				}
			}
		}
	}
	return moves
}

// emitMoves sequentializes the parallel φ-copies: repeatedly emit moves
// whose destination no other pending move still reads; on a cycle, park
// one destination in the scratch slot and redirect its readers. Every
// emitted instruction is a plain MOV so fused CMP flags survive.
func (c *compiler) emitMoves(moves []pmove) {
	for len(moves) > 0 {
		progress := false
		for i := 0; i < len(moves); i++ {
			m := moves[i]
			read := false
			for j, o := range moves {
				if j != i && o.src == m.dst {
					read = true
					break
				}
			}
			if read {
				continue
			}
			c.emitMove(m)
			moves = append(moves[:i], moves[i+1:]...)
			i--
			progress = true
		}
		if !progress {
			m0 := moves[0]
			c.emitMove(pmove{dst: c.scratch, src: m0.dst})
			for j := range moves {
				if moves[j].src == m0.dst {
					moves[j].src = c.scratch
				}
			}
		}
	}
}

func (c *compiler) emitMove(m pmove) {
	if m.src < 0 {
		s := int64(m.imm)
		if s >= math.MinInt32 && s <= math.MaxInt32 {
			c.a.movMemImm32(slotMem(int(m.dst)), int32(s))
		} else {
			c.a.movRegImm64(rAX, m.imm) // wide imm → MOVABS, flag-safe
			c.a.movMemReg(slotMem(int(m.dst)), rAX)
		}
		return
	}
	c.a.movRegMem(rAX, slotMem(int(m.src)))
	c.a.movMemReg(slotMem(int(m.dst)), rAX)
}

// emitStubs binds the shared trap and fault exits plus the per-site side
// exits that spill dirty registers first. The shared stubs write the
// exit record and return to the trampoline; the Go driver turns them
// into rt.Throw / a bounds panic on the existing unwind paths.
func (c *compiler) emitStubs() {
	c.a.bind(c.trapOvfL)
	c.a.movMemImm32(memBD(r13, ncExit), exitTrap)
	c.a.movMemImm32(memBD(r13, ncA), int32(rt.TrapOverflow))
	c.a.ret()
	c.a.bind(c.trapDivL)
	c.a.movMemImm32(memBD(r13, ncExit), exitTrap)
	c.a.movMemImm32(memBD(r13, ncA), int32(rt.TrapDivZero))
	c.a.ret()
	c.a.bind(c.faultL)
	c.a.movMemReg(memBD(r13, ncA), rAX)
	c.a.movMemImm32(memBD(r13, ncExit), exitFault)
	c.a.ret()
	for _, sa := range c.slow {
		c.a.bind(int(sa.label))
		switch {
		case sa.srcReg >= 0:
			c.a.movRegReg(rAX, int(sa.srcReg))
			c.addImm64(rAX, sa.k)
		case sa.srcSlot >= 0:
			c.a.movRegMem(rAX, slotMem(int(sa.srcSlot)))
			c.addImm64(rAX, sa.k)
		default:
			c.a.movRegImm64(rAX, sa.k)
			if sa.plusRCX {
				c.a.aluRegReg(aluAdd, rAX, rCX)
			}
		}
		c.segTranslate(sa.acc.w, int(sa.fault))
		c.move(sa.acc, transMem(sa.acc.w))
		c.a.jmp(int(sa.back))
	}
	// Side exits spill, then chain to the shared stubs above. The fault
	// path's RAX (faulting address) is only read, never written, here.
	for _, se := range c.sideExits {
		c.a.bind(se.label)
		for _, s := range se.stores {
			if s.phys >= xmmBase {
				c.a.movsdStore(slotMem(int(s.slot)), int(s.phys)-xmmBase)
			} else {
				c.a.movMemReg(slotMem(int(s.slot)), int(s.phys))
			}
		}
		c.a.jmp(se.shared)
	}
}
