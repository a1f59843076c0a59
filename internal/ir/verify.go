package ir

import "fmt"

// Verify checks the structural invariants of the function: every block is
// terminated, φ-nodes lead their blocks and their incoming lists match the
// predecessors exactly, every instruction operand dominates its use, and
// operand types are consistent. It returns the first violation found, or
// nil.
//
// Codegen bugs almost always surface here rather than as silent
// miscompilations in the VM, which makes the verifier the single most
// valuable debugging tool in the stack. It is also on the cold compile
// path: codegen verifies every function it generates and the bytecode
// translator verifies its input, so it must stay linear (§V-E).
func (f *Function) Verify() error {
	_, err := f.VerifyCFG()
	return err
}

// VerifyCFG is Verify returning the control-flow facts the checks read, so
// that a caller analysing the function further (the bytecode translator)
// does not compute them again. The structural checks run before any fact
// is computed, so malformed IR is reported, never a panic.
func (f *Function) VerifyCFG() (*CFG, error) {
	if err := f.verifyBlocks(); err != nil {
		return nil, err
	}
	cfg := NewCFG(f)
	if err := f.verifyPhis(cfg); err != nil {
		return nil, err
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if err := f.verifyType(v); err != nil {
				return nil, err
			}
		}
		if err := f.verifyType(b.Term); err != nil {
			return nil, err
		}
	}
	if err := f.verifyDefsDominateUses(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// verifyBlocks checks what the control-flow facts are computed from: there
// is an entry block, every block ends in exactly one terminator, φ-nodes
// lead their blocks and every instruction links back to its block.
func (f *Function) verifyBlocks() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	for _, b := range f.Blocks {
		if b.Term == nil {
			return fmt.Errorf("%s: b%d has no terminator", f.Name, b.ID)
		}
		if !b.Term.Op.IsTerminator() {
			return fmt.Errorf("%s: b%d terminator is %s", f.Name, b.ID, b.Term.Op)
		}
		seenNonPhi := false
		for _, in := range b.Instrs {
			if in.Op.IsTerminator() {
				return fmt.Errorf("%s: b%d contains terminator %s mid-block", f.Name, b.ID, in.Op)
			}
			if in.Op == OpPhi {
				if seenNonPhi {
					return fmt.Errorf("%s: b%d phi %%%d after non-phi", f.Name, b.ID, in.ID)
				}
			} else {
				seenNonPhi = true
			}
			if in.Block != b {
				return fmt.Errorf("%s: b%d instr %%%d has wrong block link", f.Name, b.ID, in.ID)
			}
		}
	}
	return nil
}

// verifyPhis checks every φ-node's incoming list against the block's
// predecessors and the φ's type.
func (f *Function) verifyPhis(cfg *CFG) error {
	for _, b := range f.Blocks {
		preds := cfg.Preds[b.ID]
		for _, phi := range b.Phis() {
			if len(phi.Args) != len(preds) {
				return fmt.Errorf("%s: b%d phi %%%d has %d incoming, block has %d preds",
					f.Name, b.ID, phi.ID, len(phi.Args), len(preds))
			}
			for i, in := range phi.Incoming {
				found := false
				for _, p := range preds {
					if p == in {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("%s: b%d phi %%%d incoming b%d is not a predecessor",
						f.Name, b.ID, phi.ID, in.ID)
				}
				if phi.Args[i].Type != phi.Type {
					return fmt.Errorf("%s: b%d phi %%%d incoming %d has type %s, want %s",
						f.Name, b.ID, phi.ID, i, phi.Args[i].Type, phi.Type)
				}
			}
		}
	}
	return nil
}

// verifyType checks the operand and result types of one instruction.
func (f *Function) verifyType(v *Value) error {
	check := func(cond bool, msg string) error {
		if !cond {
			return fmt.Errorf("%s: %%%d (%s): %s", f.Name, v.ID, v.Op, msg)
		}
		return nil
	}
	switch v.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpUDiv, OpURem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		return check(v.Args[0].Type == v.Args[1].Type && v.Args[0].Type == v.Type,
			"integer binop type mismatch")
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		return check(v.Args[0].Type == F64 && v.Args[1].Type == F64, "float binop wants f64")
	case OpICmp:
		return check(v.Args[0].Type == v.Args[1].Type && v.Type == I1, "icmp type mismatch")
	case OpFCmp:
		return check(v.Args[0].Type == F64 && v.Args[1].Type == F64 && v.Type == I1, "fcmp wants f64")
	case OpSAddOvf, OpSSubOvf, OpSMulOvf:
		return check(v.Args[0].Type == I64 && v.Args[1].Type == I64 && v.Type == Pair,
			"overflow arith wants i64 -> pair")
	case OpExtractValue:
		return check(v.Args[0].Type == Pair && v.Lit <= 1, "extractvalue wants pair")
	case OpLoad:
		return check(v.Args[0].Type == I64 && v.Type != Void, "load wants i64 addr")
	case OpStore:
		return check(v.Args[0].Type == I64, "store wants i64 addr")
	case OpGEP:
		return check(v.Args[0].Type == I64 && v.Args[1].Type == I64 && v.Type == I64,
			"gep wants i64 operands")
	case OpSelect:
		return check(v.Args[0].Type == I1 && v.Args[1].Type == v.Args[2].Type &&
			v.Type == v.Args[1].Type, "select type mismatch")
	case OpCondBr:
		return check(v.Args[0].Type == I1 && len(v.Targets) == 2, "condbr wants i1 + 2 targets")
	case OpBr:
		return check(len(v.Targets) == 1, "br wants 1 target")
	case OpCall:
		sig := f.Module.Externs[v.Callee]
		if len(sig.Args) != len(v.Args) {
			return check(false, fmt.Sprintf("call @%s arity %d, want %d",
				sig.Name, len(v.Args), len(sig.Args)))
		}
		for i, a := range v.Args {
			if a.Type != sig.Args[i] {
				return check(false, fmt.Sprintf("call @%s arg %d type %s, want %s",
					sig.Name, i, a.Type, sig.Args[i]))
			}
		}
		return check(v.Type == sig.Ret, "call result type mismatch")
	}
	return nil
}

// verifyDefsDominateUses checks that every instruction operand is defined
// before its use: earlier in the same block, or in a block dominating the
// use's (for a φ-argument, dominating the end of the incoming block).
func (f *Function) verifyDefsDominateUses(cfg *CFG) error {
	// pos[v.ID] is v's index in its block; the terminator comes last.
	pos := make([]int32, f.NumValues())
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			pos[in.ID] = int32(i)
		}
		pos[b.Term.ID] = int32(len(b.Instrs))
	}
	uses := func(v *Value, b *Block) error {
		for ai, a := range v.Args {
			if !a.IsInstr() {
				continue // constants and params dominate everything
			}
			db := a.Block
			if db == nil {
				return fmt.Errorf("%s: %%%d uses unplaced value %%%d", f.Name, v.ID, a.ID)
			}
			if v.Op == OpPhi {
				// φ-args are "read" at the end of the incoming block.
				if !cfg.Dominates(db, v.Incoming[ai]) {
					return fmt.Errorf("%s: phi %%%d arg %%%d does not dominate incoming b%d",
						f.Name, v.ID, a.ID, v.Incoming[ai].ID)
				}
				continue
			}
			if db == b {
				if pos[a.ID] >= pos[v.ID] {
					return fmt.Errorf("%s: %%%d used before def in b%d by %%%d", f.Name, a.ID, b.ID, v.ID)
				}
			} else if !cfg.Dominates(db, b) {
				return fmt.Errorf("%s: def of %%%d (b%d) does not dominate use %%%d (b%d)",
					f.Name, a.ID, db.ID, v.ID, b.ID)
			}
		}
		return nil
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if err := uses(v, b); err != nil {
				return err
			}
		}
		if err := uses(b.Term, b); err != nil {
			return err
		}
	}
	return nil
}
