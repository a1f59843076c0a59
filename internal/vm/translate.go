package vm

import (
	"fmt"

	"aqe/internal/ir"
	"aqe/internal/ir/analysis"
)

// Translate lowers an IR function into bytecode following Fig. 9 of the
// paper: compute liveness and block order, allocate registers on demand,
// translate instruction by instruction skipping subsumed instructions
// (macro-op fusion, §IV-F), propagate φ values with register moves at block
// ends, and release registers when ranges end (handled inside allocate).
//
// Translate may split critical edges of f (an idempotent, semantics-
// preserving transformation shared with the native backend). The
// control-flow facts of the split function are computed once: the verifier
// checks f against them and liveness reads them.
func Translate(f *ir.Function, opts Options) (*Program, error) {
	f.SplitCriticalEdges()
	cfg, err := f.VerifyCFG()
	if err != nil {
		return nil, fmt.Errorf("vm: translate %s: %w", f.Name, err)
	}
	lv := analysis.ComputeLiveness(cfg)
	fu := planFusion(f, opts)
	al := allocate(f, lv, fu.hasSlot, opts)

	t := &translator{
		f: f, lv: lv, fu: fu, al: al,
		prog: &Program{
			Name:      f.Name,
			ConstPool: al.constPool,
			ParamBase: al.paramBase,
			NumParams: len(f.Params),
		},
		blockPC: make([]int, len(f.Blocks)),
		patches: make([]patch, 0, 2*len(f.Blocks)),
	}
	t.emitAll()
	t.prog.NumRegs = al.numSlots
	t.prog.SourceInstrs = f.NumInstrs()
	return t.prog, nil
}

// fusion records which IR instructions are subsumed into macro-ops.
type fusion struct {
	// hasSlot[v] is false for values that never materialize in a register
	// (fused geps and compares, pair values of fused overflow checks, the
	// overflow flags).
	hasSlot []bool
	// emit[v] is false for instructions replaced by a macro-op elsewhere.
	emit []bool
	// fusedCmpBr[block ID] is the compare feeding the block's fused
	// compare-and-branch terminator, if any.
	fusedCmpBr []*ir.Value
	// fusedOvf[block ID] describes an overflow-check group fused into the
	// block's terminator (op is nil if there is none).
	fusedOvf []ovfGroup
	count    int
}

type ovfGroup struct {
	op     *ir.Value // the sadd/ssub/smul.ovf instruction
	result *ir.Value // extractvalue 0
	flag   *ir.Value // extractvalue 1
}

// planFusion scans the function for the macro-op patterns of §IV-F:
//
//   - GetElementPtr whose uses are all load/store addresses in the same
//     block folds into load_idx/store_idx opcodes;
//   - an i64 comparison whose only use is its own block's conditional
//     branch folds into a compare-and-branch opcode;
//   - the four-instruction overflow-check sequence (ovf-op, extractvalue 0,
//     extractvalue 1, condbr) at the tail of a block folds into a single
//     checked-arithmetic-and-branch opcode; ir.CheckedBranch recognizes
//     it, for the native back end too.
func planFusion(f *ir.Function, opts Options) *fusion {
	fu := &fusion{
		hasSlot:    make([]bool, f.NumValues()),
		emit:       make([]bool, f.NumValues()),
		fusedCmpBr: make([]*ir.Value, len(f.Blocks)),
		fusedOvf:   make([]ovfGroup, len(f.Blocks)),
	}
	for i := range fu.hasSlot {
		fu.hasSlot[i] = true
		fu.emit[i] = true
	}
	if opts.NoFusion {
		return fu
	}

	// Use accounting in one linear sweep, so each pattern check below is
	// O(1) per candidate — the translation must remain linear even for the
	// 160k-instruction machine-generated functions of §V-E.
	useCount := make([]int32, f.NumValues())
	memAddrOnly := make([]bool, f.NumValues())
	sameBlockUses := make([]bool, f.NumValues())
	defBlock := make([]*ir.Block, f.NumValues())
	for i := range memAddrOnly {
		memAddrOnly[i] = true
		sameBlockUses[i] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Type != ir.Void {
				defBlock[in.ID] = b
			}
		}
	}
	visit := func(u *ir.Value, b *ir.Block) {
		for ai, a := range u.Args {
			if !a.IsInstr() {
				continue
			}
			useCount[a.ID]++
			isMemAddr := (u.Op == ir.OpLoad && ai == 0) || (u.Op == ir.OpStore && ai == 0)
			if !isMemAddr {
				memAddrOnly[a.ID] = false
			}
			if defBlock[a.ID] != b {
				sameBlockUses[a.ID] = false
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			visit(in, b)
		}
		visit(b.Term, b)
	}

	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGEP && useCount[in.ID] > 0 &&
				memAddrOnly[in.ID] && sameBlockUses[in.ID] {
				fu.hasSlot[in.ID] = false
				fu.emit[in.ID] = false
				fu.count++
			}
		}
		if op, result := ir.CheckedBranch(b, useCount); op != nil {
			flag := b.Term.Args[0]
			fu.hasSlot[op.ID] = false
			fu.hasSlot[flag.ID] = false
			fu.emit[op.ID] = false
			fu.emit[result.ID] = false
			fu.emit[flag.ID] = false
			fu.fusedOvf[b.ID] = ovfGroup{op: op, result: result, flag: flag}
			fu.count += 3
			continue
		}
		term := b.Term
		if term.Op != ir.OpCondBr {
			continue
		}
		cond := term.Args[0]
		if cond.IsInstr() && cond.Op == ir.OpICmp && cond.Block == b && useCount[cond.ID] == 1 {
			fu.hasSlot[cond.ID] = false
			fu.emit[cond.ID] = false
			fu.fusedCmpBr[b.ID] = cond
			fu.count++
		}
	}
	return fu
}

type translator struct {
	f    *ir.Function
	lv   *analysis.Liveness
	fu   *fusion
	al   *allocation
	prog *Program

	blockPC []int // by block ID; -1 until laid out
	patches []patch
	moves   []move // emitPhiMoves' scratch
}

// move is one register copy of a φ's parallel copy.
type move struct{ dst, src int32 }

// patch records a branch operand to rewrite from block ID to pc.
type patch struct {
	inst  int
	field uint8 // 0=A, 1=B, 2=C, 3=Lit-high, 4=Lit-low
	block int
}

func (t *translator) emit(in Inst) int {
	t.prog.Code = append(t.prog.Code, in)
	return len(t.prog.Code) - 1
}

func (t *translator) slot(v *ir.Value) int32 { return t.al.of(v) }

func (t *translator) emitAll() {
	rpo := t.lv.Order()
	for i := range t.blockPC {
		t.blockPC[i] = -1
	}
	for bi, b := range rpo {
		t.blockPC[b.ID] = len(t.prog.Code)
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi || !t.fu.emit[in.ID] {
				continue
			}
			t.emitInstr(in)
		}
		var next *ir.Block
		if bi+1 < len(rpo) {
			next = rpo[bi+1]
		}
		t.emitTerm(b, next)
	}
	t.prog.Fused = t.fu.count
	// Resolve branch targets.
	for _, p := range t.patches {
		pc := t.blockPC[p.block]
		in := &t.prog.Code[p.inst]
		switch p.field {
		case 0:
			in.A = int32(pc)
		case 1:
			in.B = int32(pc)
		case 2:
			in.C = int32(pc)
		case 3:
			in.Lit = in.Lit&0x00000000ffffffff | uint64(uint32(pc))<<32
		case 4:
			in.Lit = in.Lit&0xffffffff00000000 | uint64(uint32(pc))
		}
	}
}

// addrOperand returns (baseReg, idxReg, lit) for a memory operand, folding
// a fused GEP into the load_idx/store_idx encoding; a plain address uses
// base with a zero index.
func (t *translator) addrOperand(addr *ir.Value) (int32, int32, uint64, bool) {
	if addr.IsInstr() && addr.Op == ir.OpGEP && !t.fu.emit[addr.ID] {
		return t.slot(addr.Args[0]), t.slot(addr.Args[1]),
			packScaleDisp(int64(addr.Lit), int64(addr.Lit2)), true
	}
	return t.slot(addr), 0, 0, false
}

var icmpOp = map[ir.Pred]Op{
	ir.Eq: OpCmpEqI64, ir.Ne: OpCmpNeI64,
	ir.SLt: OpCmpSLtI64, ir.SLe: OpCmpSLeI64, ir.SGt: OpCmpSGtI64, ir.SGe: OpCmpSGeI64,
	ir.ULt: OpCmpULtI64, ir.ULe: OpCmpULeI64, ir.UGt: OpCmpUGtI64, ir.UGe: OpCmpUGeI64,
}

var fcmpOp = map[ir.Pred]Op{
	ir.Eq: OpCmpEqF64, ir.Ne: OpCmpNeF64,
	ir.SLt: OpCmpLtF64, ir.SLe: OpCmpLeF64, ir.SGt: OpCmpGtF64, ir.SGe: OpCmpGeF64,
}

var jcmpOp = map[ir.Pred]Op{
	ir.Eq: OpJEqI64, ir.Ne: OpJNeI64,
	ir.SLt: OpJSLtI64, ir.SLe: OpJSLeI64, ir.SGt: OpJSGtI64, ir.SGe: OpJSGeI64,
	ir.ULt: OpJULtI64, ir.ULe: OpJULeI64, ir.UGt: OpJUGtI64, ir.UGe: OpJUGeI64,
}

var binOp = map[ir.Op]Op{
	ir.OpAdd: OpAddI64, ir.OpSub: OpSubI64, ir.OpMul: OpMulI64,
	ir.OpSDiv: OpSDivI64, ir.OpSRem: OpSRemI64, ir.OpUDiv: OpUDivI64, ir.OpURem: OpURemI64,
	ir.OpFAdd: OpAddF64, ir.OpFSub: OpSubF64, ir.OpFMul: OpMulF64, ir.OpFDiv: OpDivF64,
	ir.OpAnd: OpAnd64, ir.OpOr: OpOr64, ir.OpXor: OpXor64,
	ir.OpShl: OpShl64, ir.OpLShr: OpLShr64, ir.OpAShr: OpAShr64,
}

var ovfOp = map[ir.Op]Op{
	ir.OpSAddOvf: OpSAddOvf, ir.OpSSubOvf: OpSSubOvf, ir.OpSMulOvf: OpSMulOvf,
}

var ovfBrOp = map[ir.Op]Op{
	ir.OpSAddOvf: OpSAddOvfBr, ir.OpSSubOvf: OpSSubOvfBr, ir.OpSMulOvf: OpSMulOvfBr,
}

var loadOp = [9]Op{1: OpLoadI8, 2: OpLoadI16, 4: OpLoadI32, 8: OpLoadI64}
var loadIdxOp = [9]Op{1: OpLoadIdxI8, 2: OpLoadIdxI16, 4: OpLoadIdxI32, 8: OpLoadIdxI64}
var storeOp = [9]Op{1: OpStoreI8, 2: OpStoreI16, 4: OpStoreI32, 8: OpStoreI64}
var storeIdxOp = [9]Op{1: OpStoreIdxI8, 2: OpStoreIdxI16, 4: OpStoreIdxI32, 8: OpStoreIdxI64}

func (t *translator) emitInstr(in *ir.Value) {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpUDiv, ir.OpURem,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		t.emit(Inst{Op: binOp[in.Op], A: t.slot(in), B: t.slot(in.Args[0]), C: t.slot(in.Args[1])})
	case ir.OpICmp:
		t.emit(Inst{Op: icmpOp[in.Pred], A: t.slot(in), B: t.slot(in.Args[0]), C: t.slot(in.Args[1])})
	case ir.OpFCmp:
		t.emit(Inst{Op: fcmpOp[in.Pred], A: t.slot(in), B: t.slot(in.Args[0]), C: t.slot(in.Args[1])})
	case ir.OpSAddOvf, ir.OpSSubOvf, ir.OpSMulOvf:
		t.emit(Inst{Op: ovfOp[in.Op], A: t.slot(in), B: t.slot(in.Args[0]), C: t.slot(in.Args[1])})
	case ir.OpExtractValue:
		// Unfused extract: pair occupies slots [s, s+1].
		src := t.slot(in.Args[0]) + int32(in.Lit)
		t.emit(Inst{Op: OpMov, A: t.slot(in), B: src})
	case ir.OpSExt:
		var op Op
		switch in.Args[0].Type {
		case ir.I8, ir.I1:
			op = OpSExt8
		case ir.I16:
			op = OpSExt16
		case ir.I32:
			op = OpSExt32
		default:
			op = OpMov
		}
		t.emit(Inst{Op: op, A: t.slot(in), B: t.slot(in.Args[0])})
	case ir.OpZExt:
		// Registers hold zero-extended narrow values already.
		t.emit(Inst{Op: OpMov, A: t.slot(in), B: t.slot(in.Args[0])})
	case ir.OpTrunc:
		var op Op
		switch in.Type {
		case ir.I8, ir.I1:
			op = OpTrunc8
		case ir.I16:
			op = OpTrunc16
		case ir.I32:
			op = OpTrunc32
		default:
			op = OpMov
		}
		t.emit(Inst{Op: op, A: t.slot(in), B: t.slot(in.Args[0])})
	case ir.OpSIToFP:
		t.emit(Inst{Op: OpSIToFP, A: t.slot(in), B: t.slot(in.Args[0])})
	case ir.OpFPToSI:
		t.emit(Inst{Op: OpFPToSI, A: t.slot(in), B: t.slot(in.Args[0])})
	case ir.OpLoad:
		w := in.Type.Width()
		if base, idx, lit, fused := t.addrOperand(in.Args[0]); fused {
			t.emit(Inst{Op: loadIdxOp[w], A: t.slot(in), B: base, C: idx, Lit: lit})
		} else {
			t.emit(Inst{Op: loadOp[w], A: t.slot(in), B: base})
		}
	case ir.OpStore:
		w := in.Args[1].Type.Width()
		val := t.slot(in.Args[1])
		if base, idx, lit, fused := t.addrOperand(in.Args[0]); fused {
			t.emit(Inst{Op: storeIdxOp[w], A: val, B: base, C: idx, Lit: lit})
		} else {
			t.emit(Inst{Op: storeOp[w], A: val, B: base})
		}
	case ir.OpGEP:
		t.emit(Inst{Op: OpLea, A: t.slot(in), B: t.slot(in.Args[0]), C: t.slot(in.Args[1]),
			Lit: packScaleDisp(int64(in.Lit), int64(in.Lit2))})
	case ir.OpSelect:
		t.emit(Inst{Op: OpSelect, A: t.slot(in), B: t.slot(in.Args[0]),
			C: t.slot(in.Args[1]), Lit: uint64(t.slot(in.Args[2]))})
	case ir.OpCall:
		for i, a := range in.Args {
			t.emit(Inst{Op: OpArg, A: int32(i), B: t.slot(a)})
		}
		dst := int32(-1)
		if in.Type != ir.Void {
			dst = t.slot(in)
		}
		t.emit(Inst{Op: OpCall, A: dst, B: int32(len(in.Args)), Lit: uint64(in.Callee)})
	default:
		panic(fmt.Sprintf("vm: cannot translate %s", in.Op))
	}
}

// emitTerm emits the φ-propagation moves for the block's successors
// followed by the (possibly fused) terminator.
func (t *translator) emitTerm(b *ir.Block, next *ir.Block) {
	t.emitPhiMoves(b)
	term := b.Term
	switch term.Op {
	case ir.OpBr:
		if term.Targets[0] != next {
			i := t.emit(Inst{Op: OpJmp})
			t.patches = append(t.patches, patch{i, 0, term.Targets[0].ID})
		}
	case ir.OpCondBr:
		if g := t.fu.fusedOvf[b.ID]; g.op != nil {
			i := t.emit(Inst{Op: ovfBrOp[g.op.Op], A: t.slot(g.result),
				B: t.slot(g.op.Args[0]), C: t.slot(g.op.Args[1])})
			t.patches = append(t.patches,
				patch{i, 3, term.Targets[0].ID}, // taken on overflow
				patch{i, 4, term.Targets[1].ID})
			return
		}
		if cmp := t.fu.fusedCmpBr[b.ID]; cmp != nil {
			i := t.emit(Inst{Op: jcmpOp[cmp.Pred],
				A: t.slot(cmp.Args[0]), B: t.slot(cmp.Args[1])})
			t.patches = append(t.patches,
				patch{i, 2, term.Targets[0].ID},
				patch{i, 4, term.Targets[1].ID})
			return
		}
		i := t.emit(Inst{Op: OpJmpIf, A: t.slot(term.Args[0])})
		t.patches = append(t.patches,
			patch{i, 1, term.Targets[0].ID},
			patch{i, 2, term.Targets[1].ID})
	case ir.OpRet:
		t.emit(Inst{Op: OpRet, A: t.slot(term.Args[0])})
	case ir.OpRetVoid:
		t.emit(Inst{Op: OpRetVoid})
	}
}

// emitPhiMoves lowers the φ-nodes of b's successors into register moves at
// the end of b, sequentializing the parallel copy with the scratch register
// when the moves form a cycle (the classic swap problem).
func (t *translator) emitPhiMoves(b *ir.Block) {
	moves := t.moves[:0]
	for _, s := range b.Succs() {
		for _, phi := range s.Phis() {
			for i, in := range phi.Incoming {
				if in == b {
					d, src := t.slot(phi), t.slot(phi.Args[i])
					if d != src {
						moves = append(moves, move{d, src})
					}
				}
			}
		}
	}
	t.moves = moves // keep the grown array for the next block
	for len(moves) > 0 {
		progress := false
		for i := 0; i < len(moves); i++ {
			m := moves[i]
			blocked := false
			for j, o := range moves {
				if j != i && o.src == m.dst {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			t.emit(Inst{Op: OpMov, A: m.dst, B: m.src})
			moves = append(moves[:i], moves[i+1:]...)
			i--
			progress = true
		}
		if !progress {
			// Cycle: save one destination to scratch and redirect its
			// readers there.
			d := moves[0].dst
			t.emit(Inst{Op: OpMov, A: t.al.scratch, B: d})
			for i := range moves {
				if moves[i].src == d {
					moves[i].src = t.al.scratch
				}
			}
		}
	}
}
