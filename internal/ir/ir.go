// Package ir implements a typed SSA intermediate representation modeled on
// LLVM IR. It is the language the query code generator targets, and the
// input of both the bytecode translator (internal/vm) and the native
// backend (internal/asm).
//
// The representation intentionally mirrors the subset of LLVM IR that a
// query compiler emits: integer and floating point arithmetic,
// overflow-checked arithmetic returning {value, flag} pairs, comparisons,
// loads and stores against a 64-bit address space, a simplified
// GetElementPtr, φ-nodes, conditional branches, and calls to registered
// runtime ("extern") functions.
package ir

import (
	"fmt"
	"sort"
)

// Type is the type of an SSA value.
type Type uint8

// Value types. Pair is the {i64, i1} aggregate produced by the
// overflow-checked arithmetic instructions, matching LLVM's
// llvm.sadd.with.overflow family.
const (
	Void Type = iota
	I1
	I8
	I16
	I32
	I64
	F64
	Pair
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I1:
		return "i1"
	case I8:
		return "i8"
	case I16:
		return "i16"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F64:
		return "f64"
	case Pair:
		return "{i64,i1}"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Width returns the in-memory width in bytes of a value of type t when
// accessed through a load or store.
func (t Type) Width() int {
	switch t {
	case I1, I8:
		return 1
	case I16:
		return 2
	case I32:
		return 4
	case I64, F64:
		return 8
	}
	return 0
}

// Pred is a comparison predicate shared by ICmp and FCmp.
type Pred uint8

// Comparison predicates. The S-prefixed predicates are signed, the
// U-prefixed unsigned; FCmp uses Eq/Ne/SLt/SLe/SGt/SGe with ordered float
// semantics.
const (
	Eq Pred = iota
	Ne
	SLt
	SLe
	SGt
	SGe
	ULt
	ULe
	UGt
	UGe
)

func (p Pred) String() string {
	switch p {
	case Eq:
		return "eq"
	case Ne:
		return "ne"
	case SLt:
		return "slt"
	case SLe:
		return "sle"
	case SGt:
		return "sgt"
	case SGe:
		return "sge"
	case ULt:
		return "ult"
	case ULe:
		return "ule"
	case UGt:
		return "ugt"
	case UGe:
		return "uge"
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// Op identifies the operation of a Value.
type Op uint8

// Instruction opcodes. OpConst and OpParam identify non-instruction values
// (they never appear inside a block).
const (
	OpInvalid Op = iota
	OpConst
	OpParam

	// Integer arithmetic (i64 unless noted).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpUDiv
	OpURem

	// Float arithmetic (f64).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Comparisons; the predicate lives in Value.Pred.
	OpICmp
	OpFCmp

	// Overflow-checked signed arithmetic; produce a Pair {result, flag}.
	OpSAddOvf
	OpSSubOvf
	OpSMulOvf
	// OpExtractValue extracts field Lit (0 = value, 1 = flag) of a Pair.
	OpExtractValue

	// Conversions.
	OpSExt
	OpZExt
	OpTrunc
	OpSIToFP
	OpFPToSI

	// Memory. Addresses are i64 values in the segmented rt address space.
	OpLoad  // Args[0] = addr; result type = Value.Type
	OpStore // Args[0] = addr, Args[1] = value
	// OpGEP computes Args[0] + Args[1]*Lit + Lit2 (base + index*scale + disp).
	OpGEP

	OpPhi
	OpSelect // Args[0] = cond (i1), Args[1], Args[2]

	// OpCall invokes extern function Value.Callee with Args.
	OpCall

	// Terminators.
	OpBr     // Targets[0]
	OpCondBr // Args[0] = cond; Targets[0] = then, Targets[1] = else
	OpRet    // Args[0] = result
	OpRetVoid
)

var opNames = map[Op]string{
	OpConst: "const", OpParam: "param",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpUDiv: "udiv", OpURem: "urem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpSAddOvf: "sadd.ovf", OpSSubOvf: "ssub.ovf", OpSMulOvf: "smul.ovf",
	OpExtractValue: "extractvalue",
	OpSExt:         "sext", OpZExt: "zext", OpTrunc: "trunc",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpPhi: "phi", OpSelect: "select", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpRetVoid: "ret void",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpRetVoid:
		return true
	}
	return false
}

// Value is an SSA value: a constant, a function parameter, or the result of
// an instruction. A single struct covers all three, as in many production
// IRs, to keep the representation compact and allocation-friendly.
type Value struct {
	ID   int
	Op   Op
	Type Type
	Pred Pred // ICmp/FCmp predicate

	// Args are the operand values. For OpPhi, Incoming[i] is the
	// predecessor block contributing Args[i].
	Args     []*Value
	Incoming []*Block

	// Targets are the successor blocks of a terminator.
	Targets []*Block

	// Const carries the constant bit pattern for OpConst (float64 values
	// are stored via math.Float64bits).
	Const uint64

	// Lit / Lit2 are the literal operands of OpGEP (scale, displacement)
	// and OpExtractValue (field index in Lit).
	Lit  uint64
	Lit2 uint64

	// Callee is the extern function index for OpCall.
	Callee int

	// Block is the block containing this instruction (nil for constants
	// and parameters).
	Block *Block
}

// IsInstr reports whether v is an instruction (lives in a block).
func (v *Value) IsInstr() bool { return v.Op != OpConst && v.Op != OpParam }

// IsConst reports whether v is a constant.
func (v *Value) IsConst() bool { return v.Op == OpConst }

// ConstI64 returns the constant as a signed integer. Panics if v is not a
// constant.
func (v *Value) ConstI64() int64 {
	if !v.IsConst() {
		panic("ir: ConstI64 on non-constant")
	}
	return int64(v.Const)
}

// Block is a basic block: a list of non-terminator instructions followed by
// exactly one terminator.
type Block struct {
	ID     int
	Instrs []*Value
	Term   *Value
	Fn     *Function
}

// Succs returns the successor blocks of b (the targets of its terminator).
func (b *Block) Succs() []*Block {
	if b.Term == nil {
		return nil
	}
	return b.Term.Targets
}

// Phis returns the φ-nodes at the head of the block.
func (b *Block) Phis() []*Value {
	n := 0
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		n++
	}
	return b.Instrs[:n]
}

// ExternSig declares the signature of a runtime function callable from
// generated code.
type ExternSig struct {
	Name string
	Ret  Type
	Args []Type
}

// Module is a compilation unit: a set of functions plus the extern
// declarations they may call.
type Module struct {
	Name      string
	Funcs     []*Function
	Externs   []ExternSig
	externIdx map[string]int
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, externIdx: make(map[string]int)}
}

// DeclareExtern registers (or finds) an extern function declaration and
// returns its index. Re-declaring with a different signature panics: the
// mismatch would corrupt the call ABI silently at runtime otherwise.
func (m *Module) DeclareExtern(name string, ret Type, args ...Type) int {
	if idx, ok := m.externIdx[name]; ok {
		sig := m.Externs[idx]
		if sig.Ret != ret || len(sig.Args) != len(args) {
			panic("ir: extern " + name + " redeclared with different signature")
		}
		for i := range args {
			if sig.Args[i] != args[i] {
				panic("ir: extern " + name + " redeclared with different signature")
			}
		}
		return idx
	}
	idx := len(m.Externs)
	m.Externs = append(m.Externs, ExternSig{Name: name, Ret: ret, Args: args})
	m.externIdx[name] = idx
	return idx
}

// ExternIndex returns the index of a declared extern, or -1.
func (m *Module) ExternIndex(name string) int {
	if idx, ok := m.externIdx[name]; ok {
		return idx
	}
	return -1
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumInstrs returns the total instruction count across all functions; this
// is the "number of LLVM instructions" axis of the paper's Fig. 6/15.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Function is an SSA function.
type Function struct {
	Name   string
	Params []*Value
	Blocks []*Block
	Module *Module

	nextID int
	consts map[constKey]*Value
}

type constKey struct {
	typ  Type
	bits uint64
}

// NewFunc creates a function with the given parameter types and appends it
// to the module.
func (m *Module) NewFunc(name string, params ...Type) *Function {
	f := &Function{Name: name, Module: m, consts: make(map[constKey]*Value)}
	for _, pt := range params {
		p := &Value{ID: f.nextID, Op: OpParam, Type: pt}
		f.nextID++
		f.Params = append(f.Params, p)
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// NewBlock appends a new empty block to the function.
func (f *Function) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks), Fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NumValues returns an upper bound on value IDs in the function, usable to
// size ID-indexed side tables.
func (f *Function) NumValues() int { return f.nextID }

// NumInstrs returns the number of instructions (including terminators).
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
		if b.Term != nil {
			n++
		}
	}
	return n
}

// Const returns the (deduplicated) constant with the given type and bits.
func (f *Function) Const(t Type, bits uint64) *Value {
	k := constKey{t, bits}
	if v, ok := f.consts[k]; ok {
		return v
	}
	v := &Value{ID: f.nextID, Op: OpConst, Type: t, Const: bits}
	f.nextID++
	f.consts[k] = v
	return v
}

// Constants returns all constants used by the function in a deterministic
// order (sorted by value ID). Machine-generated queries carry tens of
// thousands of distinct constants, so this must not be quadratic (§V-E).
func (f *Function) Constants() []*Value {
	out := make([]*Value, 0, len(f.consts))
	for _, v := range f.consts {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// newInstr allocates an instruction value owned by the function.
func (f *Function) newInstr(op Op, t Type, args ...*Value) *Value {
	v := &Value{ID: f.nextID, Op: op, Type: t, Args: args}
	f.nextID++
	return v
}

// Preds computes the predecessor lists of all blocks, indexed by block ID.
// The lists share one backing array, each capped at its own length.
func (f *Function) Preds() [][]*Block {
	preds := make([][]*Block, len(f.Blocks))
	n := make([]int, len(f.Blocks))
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			n[s.ID]++
			edges++
		}
	}
	all := make([]*Block, edges)
	for id, k := range n {
		preds[id], all = all[:0:k], all[k:]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s.ID] = append(preds[s.ID], b)
		}
	}
	return preds
}

// renumberBlocks reassigns block IDs to match slice order; used by passes
// that remove or reorder blocks.
func (f *Function) renumberBlocks() {
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// RemoveDeadBlocks drops blocks unreachable from the entry and fixes up
// φ-node incoming lists. Returns the number of blocks removed.
func (f *Function) RemoveDeadBlocks() int {
	reach := make([]bool, len(f.Blocks))
	stack := []*Block{f.Entry()}
	reach[f.Entry().ID] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s.ID] {
				reach[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	removed := 0
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.ID] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	// Drop φ incoming entries that reference removed blocks.
	for _, b := range kept {
		for _, phi := range b.Phis() {
			args := phi.Args[:0]
			inc := phi.Incoming[:0]
			for i, in := range phi.Incoming {
				if reach[in.ID] {
					args = append(args, phi.Args[i])
					inc = append(inc, in)
				}
			}
			phi.Args = args
			phi.Incoming = inc
		}
	}
	f.Blocks = kept
	f.renumberBlocks()
	return removed
}
