// Package passes implements the IR optimization pipeline run before
// optimized compilation: constant folding with algebraic simplification,
// local common-subexpression elimination, dead-code elimination, and
// control-flow simplification. These correspond to the "LLVM Opt. Passes"
// stage of the paper's Fig. 1 (HyPer's hand-picked pass list: peephole
// optimizations, reassociation, CSE, CFG simplification, aggressive DCE).
//
// Passes mutate the function destructively; under adaptive execution the
// engine runs them on an ir.Function.Clone, never on the function the
// interpreter is still running.
package passes

import (
	"math"

	"aqe/internal/ir"
)

// Stats reports what the pipeline did; the compile-cost model and the
// ablation benchmarks consume these.
type Stats struct {
	Folded     int
	CSE        int
	DCE        int
	BlocksGone int
	Rounds     int
}

// Optimize runs the full O2 pipeline to a fixed point (bounded rounds).
func Optimize(f *ir.Function) Stats {
	var total Stats
	for round := 0; round < 4; round++ {
		var s Stats
		s.Folded = ConstFold(f)
		s.CSE = LocalCSE(f)
		s.DCE = DCE(f)
		s.BlocksGone = SimplifyCFG(f)
		total.Folded += s.Folded
		total.CSE += s.CSE
		total.DCE += s.DCE
		total.BlocksGone += s.BlocksGone
		total.Rounds++
		if s.Folded+s.CSE+s.DCE+s.BlocksGone == 0 {
			break
		}
	}
	return total
}

// replaceAll rewrites every operand according to repl, resolving chains
// (a -> b -> c) in one sweep.
func replaceAll(f *ir.Function, repl map[*ir.Value]*ir.Value) {
	if len(repl) == 0 {
		return
	}
	resolve := func(v *ir.Value) *ir.Value {
		for {
			n, ok := repl[v]
			if !ok {
				return v
			}
			v = n
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
		}
		for i, a := range b.Term.Args {
			b.Term.Args[i] = resolve(a)
		}
	}
}

// removeValues drops the given instructions from their blocks.
func removeValues(f *ir.Function, dead map[*ir.Value]bool) {
	if len(dead) == 0 {
		return
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !dead[in] {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
	}
}

// ConstFold evaluates instructions whose operands are all constants and
// applies basic algebraic identities (x+0, x*1, x*0, x-x, ...). Returns the
// number of instructions folded. Division by a constant zero is left in
// place so the runtime trap semantics are preserved.
func ConstFold(f *ir.Function) int {
	repl := make(map[*ir.Value]*ir.Value)
	dead := make(map[*ir.Value]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if v, ok := foldInstr(f, in); ok {
				repl[in] = v
				dead[in] = true
			}
		}
	}
	replaceAll(f, repl)
	removeValues(f, dead)
	return len(dead)
}

func foldInstr(f *ir.Function, in *ir.Value) (*ir.Value, bool) {
	argsConst := true
	for _, a := range in.Args {
		if !a.IsConst() {
			argsConst = false
			break
		}
	}
	ci := func(v int64) (*ir.Value, bool) { return f.Const(in.Type, uint64(v)), true }
	cb := func(v bool) (*ir.Value, bool) {
		if v {
			return f.Const(ir.I1, 1), true
		}
		return f.Const(ir.I1, 0), true
	}
	cf := func(v float64) (*ir.Value, bool) { return f.Const(ir.F64, math.Float64bits(v)), true }

	if argsConst && len(in.Args) > 0 {
		switch in.Op {
		case ir.OpAdd:
			return ci(in.Args[0].ConstI64() + in.Args[1].ConstI64())
		case ir.OpSub:
			return ci(in.Args[0].ConstI64() - in.Args[1].ConstI64())
		case ir.OpMul:
			return ci(in.Args[0].ConstI64() * in.Args[1].ConstI64())
		case ir.OpSDiv:
			if d := in.Args[1].ConstI64(); d != 0 && !(d == -1 && in.Args[0].ConstI64() == math.MinInt64) {
				return ci(in.Args[0].ConstI64() / d)
			}
		case ir.OpSRem:
			if d := in.Args[1].ConstI64(); d != 0 && d != -1 {
				return ci(in.Args[0].ConstI64() % d)
			}
		case ir.OpAnd:
			return ci(in.Args[0].ConstI64() & in.Args[1].ConstI64())
		case ir.OpOr:
			return ci(in.Args[0].ConstI64() | in.Args[1].ConstI64())
		case ir.OpXor:
			return ci(in.Args[0].ConstI64() ^ in.Args[1].ConstI64())
		case ir.OpShl:
			return ci(in.Args[0].ConstI64() << (uint64(in.Args[1].ConstI64()) & 63))
		case ir.OpLShr:
			return ci(int64(uint64(in.Args[0].ConstI64()) >> (uint64(in.Args[1].ConstI64()) & 63)))
		case ir.OpAShr:
			return ci(in.Args[0].ConstI64() >> (uint64(in.Args[1].ConstI64()) & 63))
		case ir.OpICmp:
			x, y := in.Args[0].ConstI64(), in.Args[1].ConstI64()
			ux, uy := uint64(x), uint64(y)
			switch in.Pred {
			case ir.Eq:
				return cb(x == y)
			case ir.Ne:
				return cb(x != y)
			case ir.SLt:
				return cb(x < y)
			case ir.SLe:
				return cb(x <= y)
			case ir.SGt:
				return cb(x > y)
			case ir.SGe:
				return cb(x >= y)
			case ir.ULt:
				return cb(ux < uy)
			case ir.ULe:
				return cb(ux <= uy)
			case ir.UGt:
				return cb(ux > uy)
			case ir.UGe:
				return cb(ux >= uy)
			}
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			x := math.Float64frombits(uint64(in.Args[0].ConstI64()))
			y := math.Float64frombits(uint64(in.Args[1].ConstI64()))
			switch in.Op {
			case ir.OpFAdd:
				return cf(x + y)
			case ir.OpFSub:
				return cf(x - y)
			case ir.OpFMul:
				return cf(x * y)
			case ir.OpFDiv:
				return cf(x / y)
			}
		case ir.OpSExt:
			v := in.Args[0].ConstI64()
			switch in.Args[0].Type {
			case ir.I1, ir.I8:
				return ci(int64(int8(v)))
			case ir.I16:
				return ci(int64(int16(v)))
			case ir.I32:
				return ci(int64(int32(v)))
			}
			return ci(v)
		case ir.OpZExt:
			return ci(in.Args[0].ConstI64())
		case ir.OpTrunc:
			switch in.Type {
			case ir.I1:
				return ci(in.Args[0].ConstI64() & 1)
			case ir.I8:
				return ci(in.Args[0].ConstI64() & 0xff)
			case ir.I16:
				return ci(in.Args[0].ConstI64() & 0xffff)
			case ir.I32:
				return ci(in.Args[0].ConstI64() & 0xffffffff)
			}
		case ir.OpSIToFP:
			return cf(float64(in.Args[0].ConstI64()))
		case ir.OpGEP:
			return ci(in.Args[0].ConstI64() + in.Args[1].ConstI64()*int64(in.Lit) + int64(in.Lit2))
		case ir.OpSelect:
			if in.Args[0].ConstI64() != 0 {
				return in.Args[1], true
			}
			return in.Args[2], true
		}
		return nil, false
	}

	// Algebraic identities on partially constant operands.
	isC := func(a *ir.Value, v int64) bool { return a.IsConst() && a.ConstI64() == v }
	switch in.Op {
	case ir.OpAdd:
		if isC(in.Args[1], 0) {
			return in.Args[0], true
		}
		if isC(in.Args[0], 0) {
			return in.Args[1], true
		}
	case ir.OpSub:
		if isC(in.Args[1], 0) {
			return in.Args[0], true
		}
		if in.Args[0] == in.Args[1] {
			return ci(0)
		}
	case ir.OpMul:
		if isC(in.Args[1], 1) {
			return in.Args[0], true
		}
		if isC(in.Args[0], 1) {
			return in.Args[1], true
		}
		if isC(in.Args[1], 0) || isC(in.Args[0], 0) {
			return ci(0)
		}
	case ir.OpAnd:
		if in.Args[0] == in.Args[1] {
			return in.Args[0], true
		}
		if isC(in.Args[1], 0) || isC(in.Args[0], 0) {
			return ci(0)
		}
	case ir.OpOr:
		if in.Args[0] == in.Args[1] {
			return in.Args[0], true
		}
		if isC(in.Args[1], 0) {
			return in.Args[0], true
		}
		if isC(in.Args[0], 0) {
			return in.Args[1], true
		}
	case ir.OpXor:
		if in.Args[0] == in.Args[1] {
			return ci(0)
		}
	case ir.OpSelect:
		if in.Args[1] == in.Args[2] {
			return in.Args[1], true
		}
	case ir.OpGEP:
		// gep base, idx*0+0 => base
		if in.Lit == 0 && in.Lit2 == 0 {
			return in.Args[0], true
		}
		if in.Args[1].IsConst() && in.Args[1].ConstI64() == 0 && in.Lit2 == 0 {
			return in.Args[0], true
		}
	case ir.OpPhi:
		// A φ whose incoming values are all identical (or itself).
		var uniq *ir.Value
		for _, a := range in.Args {
			if a == in {
				continue
			}
			if uniq == nil {
				uniq = a
			} else if uniq != a {
				return nil, false
			}
		}
		if uniq != nil {
			return uniq, true
		}
	}
	return nil, false
}

// cseKey identifies a pure instruction for value numbering.
type cseKey struct {
	op         ir.Op
	pred       ir.Pred
	typ        ir.Type
	a0, a1, a2 int
	lit, lit2  uint64
}

func pureOp(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpICmp, ir.OpFCmp,
		ir.OpSExt, ir.OpZExt, ir.OpTrunc, ir.OpSIToFP, ir.OpFPToSI,
		ir.OpGEP, ir.OpSelect, ir.OpExtractValue:
		return true
	}
	return false
}

// LocalCSE deduplicates pure instructions within each basic block. Loads
// and calls are not touched: they observe memory. Returns the number of
// instructions eliminated.
func LocalCSE(f *ir.Function) int {
	repl := make(map[*ir.Value]*ir.Value)
	dead := make(map[*ir.Value]bool)
	table := make(map[cseKey]*ir.Value)
	resolve := func(v *ir.Value) *ir.Value {
		for {
			n, ok := repl[v]
			if !ok {
				return v
			}
			v = n
		}
	}
	for _, b := range f.Blocks {
		clear(table)
		for _, in := range b.Instrs {
			if !pureOp(in.Op) {
				continue
			}
			k := cseKey{op: in.Op, pred: in.Pred, typ: in.Type, lit: in.Lit, lit2: in.Lit2}
			ids := [3]int{-1, -1, -1}
			for i, a := range in.Args {
				if i > 2 {
					break
				}
				ids[i] = resolve(a).ID
			}
			k.a0, k.a1, k.a2 = ids[0], ids[1], ids[2]
			if prev, ok := table[k]; ok {
				repl[in] = prev
				dead[in] = true
				continue
			}
			table[k] = in
		}
	}
	replaceAll(f, repl)
	removeValues(f, dead)
	return len(dead)
}

// DCE removes pure instructions (and pure loads) whose results are unused,
// iterating until a fixed point. Calls and stores are always kept.
func DCE(f *ir.Function) int {
	removed := 0
	for {
		uses := make(map[*ir.Value]int)
		count := func(v *ir.Value) {
			for _, a := range v.Args {
				uses[a]++
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				count(in)
			}
			count(b.Term)
		}
		dead := make(map[*ir.Value]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if uses[in] > 0 || in.Type == ir.Void {
					continue
				}
				if pureOp(in.Op) || in.Op == ir.OpLoad || in.Op == ir.OpPhi ||
					in.Op == ir.OpSAddOvf || in.Op == ir.OpSSubOvf || in.Op == ir.OpSMulOvf {
					dead[in] = true
				}
			}
		}
		if len(dead) == 0 {
			return removed
		}
		removeValues(f, dead)
		removed += len(dead)
	}
}

// SimplifyCFG folds constant conditional branches, merges straight-line
// block pairs, and drops unreachable blocks. Returns the number of blocks
// eliminated.
func SimplifyCFG(f *ir.Function) int {
	before := len(f.Blocks)

	// Constant condbr -> br.
	for _, b := range f.Blocks {
		t := b.Term
		if t.Op == ir.OpCondBr && t.Args[0].IsConst() && t.Targets[0] != t.Targets[1] {
			target := t.Targets[1]
			lost := t.Targets[0]
			if t.Args[0].ConstI64() != 0 {
				target, lost = t.Targets[0], t.Targets[1]
			}
			removePhiEdge(lost, b)
			t.Op = ir.OpBr
			t.Args = nil
			t.Targets = []*ir.Block{target}
		}
	}

	// Merge b -> c where c's only predecessor is b and b's only successor
	// is c.
	preds := f.Preds()
	for _, b := range f.Blocks {
		for {
			if b.Term == nil || b.Term.Op != ir.OpBr {
				break
			}
			c := b.Term.Targets[0]
			if c == b || len(preds[c.ID]) != 1 || len(c.Phis()) != 0 || c == f.Entry() {
				break
			}
			// Splice c into b.
			for _, in := range c.Instrs {
				in.Block = b
			}
			b.Instrs = append(b.Instrs, c.Instrs...)
			b.Term = c.Term
			b.Term.Block = b
			// Successor φ-nodes must now name b as the incoming block.
			for _, s := range b.Succs() {
				for _, phi := range s.Phis() {
					for i, in := range phi.Incoming {
						if in == c {
							phi.Incoming[i] = b
						}
					}
				}
			}
			c.Instrs = nil
			c.Term = nil
			// Recompute preds lazily: c is now unreachable; b's new
			// successors each had c as a pred, now b.
			preds = f.Preds()
		}
	}

	// Drop unreachable blocks (including the spliced-out shells).
	for _, b := range f.Blocks {
		if b.Term == nil && b != f.Entry() {
			// give the shell a terminator so RemoveDeadBlocks can walk it
			ret := &ir.Value{Op: ir.OpRetVoid, Type: ir.Void, Block: b}
			b.Term = ret
		}
	}
	f.RemoveDeadBlocks()
	return before - len(f.Blocks)
}

// removePhiEdge deletes the (value, pred) pairs flowing from pred into
// block's φ-nodes when the edge pred->block is deleted.
func removePhiEdge(block, pred *ir.Block) {
	for _, phi := range block.Phis() {
		args := phi.Args[:0]
		inc := phi.Incoming[:0]
		for i, in := range phi.Incoming {
			if in != pred {
				args = append(args, phi.Args[i])
				inc = append(inc, in)
			}
		}
		phi.Args = args
		phi.Incoming = inc
	}
}
