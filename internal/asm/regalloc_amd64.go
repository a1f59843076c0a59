//go:build amd64 && (linux || darwin)

package asm

import (
	"math"

	"aqe/internal/ir"
)

// regAlloc keeps SSA values live in machine registers across stitched
// templates, in the spirit of TPDE's single-pass back-end allocation: no
// interval construction, just a value→register map maintained during the
// one linear emission pass, with next-use-driven eviction (the per-block
// analogue of linear scan's furthest-end heuristic).
//
// The invariant that keeps every other tier oblivious to the allocator is
// canonical-slot flushing: at every point where control can leave the
// generated code — extern calls, traps, faults, function return — and at
// every block boundary, all live dirty registers have been stored to
// their register-file slots, so the frame looks exactly as if the VM had
// produced it. Traps and faults get this for free via out-of-line side
// exits (see compiler.trapLabel): the hot path branches to a per-site
// stub that stores the then-dirty set and only then enters the shared
// exit-record stub, so the no-trap path pays nothing for the guarantee.
//
// Clean mappings survive a block boundary into a chain: the blocks laid
// out along sole-predecessor fall-through (compiler.layout puts a
// checked op's continuation, not its overflow target, after it). A
// memory access is a template like any other: its translation uses only
// RAX, RCX and RDX, so every pool register survives it. The chain also
// scopes the reused segment translations of compiler.planAccesses, which
// every extern call ends, and every exit leaves behind.
//
// Register classes share one numbering: 0..15 are GPRs, 16+x is XMMx.
const xmmBase = 16

// gprPool lists the allocatable GPRs in preference order. Excluded:
// RAX/RCX/RDX (template scratch, and all a segment translation touches),
// RSP, RBP (left holding a frame pointer so profiling and the execution
// tracer can still walk the stack), R12/R13/R15/RBX (pinned), R14 (Go's
// g).
var gprPool = []int{r9, r10, r11, rSI, rDI, r8}

// xmmPool lists the allocatable XMM registers. X0/X1 stay template
// scratch; X15 is Go's zero register and must never be written.
var xmmPool = []int{xmmBase + 2, xmmBase + 3, xmmBase + 4, xmmBase + 5, xmmBase + 6, xmmBase + 7}

// noUse is the next-use position of a value with no further use in the
// current block: the preferred eviction victim.
const noUse = math.MaxInt32

type regAlloc struct {
	c *compiler

	loc   []int16  // value ID → phys location, -1 when not in a register
	who   [32]int  // phys location → value ID, -1 when free
	dirty [32]bool // phys location holds a value newer than its slot

	// Per-block use positions in a flat CSR layout, rebuilt each block
	// with zero allocations: value id's uses (instruction index in the
	// current block; len(instrs) for the terminator) sit ascending at
	// useBuf[useOff[id] : useOff[id]+useCnt[id]], and useHead[id] counts
	// the retired ones. touched lists the ids with entries this block, so
	// resets touch only those.
	useBuf  []int32
	useOff  []int32
	useCnt  []int16
	useHead []int16
	touched []int32

	// dsBuf is the reusable scratch behind dirtySet.
	dsBuf []exitStore

	// cur is the instruction being emitted: its arguments were already
	// retired by consume but may still be fetched by the template, so they
	// are never treated as dead. held is the GEP folded into cur's address,
	// whose arguments the access reads in its stead.
	cur, held *ir.Value

	// cross marks values read outside their defining block (including
	// φ-arguments, which predecessors read from slots): these must be
	// flushed at block ends. A dirty block-local value whose uses are
	// exhausted is dead and its store is elided entirely.
	cross []bool
}

func newRegAlloc(c *compiler) *regAlloc {
	ra := &regAlloc{
		c:       c,
		loc:     make([]int16, c.f.NumValues()),
		useOff:  make([]int32, c.f.NumValues()),
		useCnt:  make([]int16, c.f.NumValues()),
		useHead: make([]int16, c.f.NumValues()),
		cross:   make([]bool, c.f.NumValues()),
	}
	for i := range ra.loc {
		ra.loc[i] = -1
	}
	for i := range ra.who {
		ra.who[i] = -1
	}
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for _, a := range in.Args {
					if !a.IsConst() {
						ra.cross[a.ID] = true
					}
				}
				continue
			}
			for _, a := range in.Args {
				if !a.IsConst() && (a.Block == nil || a.Block != b) {
					ra.cross[a.ID] = true
				}
			}
		}
		if t := b.Term; t != nil {
			for _, a := range t.Args {
				if !a.IsConst() && (a.Block == nil || a.Block != b) {
					ra.cross[a.ID] = true
				}
			}
		}
	}
	return ra
}

// begin starts a new block. Unless the block extends the previous one
// (single predecessor which is exactly the block just emitted, so the
// machine state on entry is the emission-end state), all cached
// locations are discarded — multi-predecessor blocks must start from
// canonical slots because each predecessor flushed its own dirty set.
func (ra *regAlloc) begin(b *ir.Block, inherit bool) {
	if !inherit {
		for p := range ra.who {
			if id := ra.who[p]; id >= 0 {
				ra.loc[id] = -1
				ra.who[p] = -1
				ra.dirty[p] = false
			}
		}
	}
	for _, id := range ra.touched {
		ra.useCnt[id], ra.useHead[id] = 0, 0
	}
	ra.touched = ra.touched[:0]
	ra.cur, ra.held = nil, nil
	// Pass 1: count uses per value so the flat buffer can be carved into
	// per-value runs without any per-value allocation.
	count := func(a *ir.Value) {
		if a.IsConst() {
			return
		}
		if ra.useCnt[a.ID] == 0 {
			ra.touched = append(ra.touched, int32(a.ID))
		}
		ra.useCnt[a.ID]++
	}
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi {
			continue // φ-arguments are slot reads in the predecessor
		}
		for _, a := range in.Args {
			count(a)
		}
	}
	if t := b.Term; t != nil {
		for _, a := range t.Args {
			count(a)
		}
	}
	n := int32(0)
	for _, id := range ra.touched {
		ra.useOff[id] = n
		n += int32(ra.useCnt[id])
		ra.useCnt[id] = 0 // reused as the fill cursor in pass 2
	}
	if cap(ra.useBuf) < int(n) {
		ra.useBuf = make([]int32, n)
	} else {
		ra.useBuf = ra.useBuf[:n]
	}
	// Pass 2: fill positions ascending; useCnt ends back at the count.
	fill := func(a *ir.Value, pos int32) {
		if a.IsConst() {
			return
		}
		ra.useBuf[ra.useOff[a.ID]+int32(ra.useCnt[a.ID])] = pos
		ra.useCnt[a.ID]++
	}
	for i, in := range b.Instrs {
		if in.Op == ir.OpPhi {
			continue
		}
		for _, a := range in.Args {
			fill(a, int32(i))
		}
	}
	if t := b.Term; t != nil {
		for _, a := range t.Args {
			fill(a, int32(len(b.Instrs)))
		}
	}
}

// consume retires one register-operand use of each of in's arguments.
// Called once per instruction (and terminator) before any operand is
// fetched, so eviction decisions see only future uses; in stays recorded
// as the in-flight instruction until the next consume, keeping its
// operands off the dead list while the template may still fetch them.
// An access also retires, and holds, the arguments of the GEP folded into
// its address, which emits nothing of its own.
func (ra *regAlloc) consume(in *ir.Value) {
	ra.cur, ra.held = in, nil
	ra.retire(in)
	if (in.Op == ir.OpLoad || in.Op == ir.OpStore) && ra.c.fold[in.Args[0].ID] {
		ra.held = in.Args[0]
		ra.retire(ra.held)
	}
}

func (ra *regAlloc) retire(in *ir.Value) {
	for _, a := range in.Args {
		if !a.IsConst() && ra.useHead[a.ID] < ra.useCnt[a.ID] {
			ra.useHead[a.ID]++
		}
	}
}

func (ra *regAlloc) nextUse(id int) int32 {
	if h := ra.useHead[id]; h < ra.useCnt[id] {
		return ra.useBuf[ra.useOff[id]+int32(h)]
	}
	return noUse
}

// isDead reports that id has no further register-operand use in this
// block, is never read outside it, and is not an operand of the
// in-flight instruction — so its register can be reclaimed without a
// spill even when dirty (the eviction-time analogue of endBlock's
// dead-store elimination).
func (ra *regAlloc) isDead(id int) bool {
	return !ra.cross[id] && ra.nextUse(id) == noUse && !ra.curArg(id)
}

// curArg reports whether id is an operand of the in-flight instruction
// or of the GEP it holds: consume already retired those uses, but the
// template may still fetch them, so they are never dead.
func (ra *regAlloc) curArg(id int) bool {
	for _, in := range [2]*ir.Value{ra.cur, ra.held} {
		if in == nil {
			continue
		}
		for _, a := range in.Args {
			if !a.IsConst() && a.ID == id {
				return true
			}
		}
	}
	return false
}

// regOf returns the phys location caching v, or -1.
func (ra *regAlloc) regOf(v *ir.Value) int {
	if v.IsConst() {
		return -1
	}
	return int(ra.loc[v.ID])
}

// store writes phys location p back to value id's slot.
func (ra *regAlloc) store(p int, id int) {
	s := slotMem(int(ra.c.slot[id]))
	if p >= xmmBase {
		ra.c.a.movsdStore(s, p-xmmBase)
	} else {
		ra.c.a.movMemReg(s, p)
	}
}

// drop unmaps phys location p, spilling it first when dirty — unless the
// occupant is dead, in which case the store is elided.
func (ra *regAlloc) drop(p int) {
	id := ra.who[p]
	if id < 0 {
		return
	}
	if ra.dirty[p] && !ra.isDead(id) {
		ra.store(p, id)
	}
	ra.loc[id] = -1
	ra.who[p] = -1
	ra.dirty[p] = false
}

// clobber releases the given phys locations before a template overwrites
// them, spilling any dirty occupant. Every emitted instruction is a MOV.
func (ra *regAlloc) clobber(phys ...int) {
	for _, p := range phys {
		ra.drop(p)
	}
}

// alloc picks a register from pool for a new occupant. Free registers
// win in pool preference order; otherwise the cheapest victim is
// evicted: a dead occupant (reclaimed for free), then a clean one (costs
// only a possible future reload), then a dirty one (store now, reload
// later) — within each class the furthest next use loses, linear scan's
// heuristic. Members of excl (operand registers the current template
// still reads after writing its destination) are never chosen. Spill
// code is MOV-only.
func (ra *regAlloc) alloc(pool []int, excl ...int) int {
	best, bestClass, bestUse := -1, -1, int32(-1)
	for _, p := range pool {
		if contains(excl, p) {
			continue
		}
		id := ra.who[p]
		if id < 0 {
			return p
		}
		class, u := 1, ra.nextUse(id)
		switch {
		case u == noUse && !ra.cross[id] && !ra.curArg(id): // dead
			class = 3
		case !ra.dirty[p]:
			class = 2
		}
		if class > bestClass || (class == bestClass && u > bestUse) {
			best, bestClass, bestUse = p, class, u
		}
	}
	ra.drop(best)
	return best
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// mapTo records that phys location p now caches v.
func (ra *regAlloc) mapTo(v *ir.Value, p int, dirty bool) {
	ra.loc[v.ID] = int16(p)
	ra.who[p] = v.ID
	ra.dirty[p] = dirty
}

// defGPR allocates a pool GPR as the destination for v and marks it
// dirty. The template must not write it before its last trap/fault
// branch (side-exit snapshots are taken between def and emission), and
// must not read any register in excl after writing it.
func (ra *regAlloc) defGPR(v *ir.Value, excl ...int) int {
	p := ra.alloc(gprPool, excl...)
	ra.mapTo(v, p, true)
	return p
}

// defXMM is defGPR for float destinations; returns the XMM index.
func (ra *regAlloc) defXMM(v *ir.Value, excl ...int) int {
	p := ra.alloc(xmmPool, excl...)
	ra.mapTo(v, p, true)
	return p - xmmBase
}

// flushAll stores every dirty register to its canonical slot, keeping
// the (now clean) mappings. Used before extern-call exits together with
// invalidateAll: the extern runs against canonical slots and may write
// any of them from Go.
func (ra *regAlloc) flushAll() {
	for p := range ra.who {
		if ra.who[p] >= 0 && ra.dirty[p] {
			ra.store(p, ra.who[p])
			ra.dirty[p] = false
		}
	}
}

// invalidateAll forgets every mapping without spilling (callers flush
// first). Register contents can no longer be trusted after an extern.
func (ra *regAlloc) invalidateAll() {
	for p := range ra.who {
		if id := ra.who[p]; id >= 0 {
			ra.loc[id] = -1
			ra.who[p] = -1
			ra.dirty[p] = false
		}
	}
}

// endBlock enforces the block-boundary invariant: every dirty value
// still live beyond this block is stored to its slot (MOV-only, so fused
// CMP flags survive into the terminator); dirty values whose uses are
// exhausted and never escape the block are dead and are simply dropped —
// the allocator's dead-store elimination. Clean mappings are kept so a
// straight-line successor can extend the block.
func (ra *regAlloc) endBlock() {
	for p := range ra.who {
		id := ra.who[p]
		if id < 0 || !ra.dirty[p] {
			continue
		}
		if ra.cross[id] {
			ra.store(p, id)
			ra.dirty[p] = false
		} else {
			ra.loc[id] = -1
			ra.who[p] = -1
			ra.dirty[p] = false
		}
	}
}

// dirtySet returns the current dirty mappings as (phys, slot) pairs in
// phys order — the store list for a side-exit stub. The returned slice
// aliases a scratch buffer valid until the next call; callers that
// retain it (new side-exit records) must copy.
func (ra *regAlloc) dirtySet() []exitStore {
	out := ra.dsBuf[:0]
	for p := range ra.who {
		if ra.who[p] >= 0 && ra.dirty[p] {
			out = append(out, exitStore{phys: int16(p), slot: ra.c.slot[ra.who[p]]})
		}
	}
	ra.dsBuf = out
	return out
}
