package ir

// Clone returns a deep copy of the function inside the same module. The
// optimizing compiler runs destructive passes on a clone because the
// original function stays live: under adaptive execution the bytecode
// interpreter keeps running the unoptimized form while the optimized
// compilation proceeds on a background thread (§III-B).
//
// The clone is appended to no module function list; it shares the module
// only for extern declarations.
func (f *Function) Clone() *Function {
	nf := &Function{
		Name:   f.Name,
		Module: f.Module,
		nextID: f.nextID,
		consts: make(map[constKey]*Value, len(f.consts)),
	}
	vmap := make(map[*Value]*Value, f.nextID)
	bmap := make(map[*Block]*Block, len(f.Blocks))

	for _, p := range f.Params {
		np := &Value{ID: p.ID, Op: OpParam, Type: p.Type}
		vmap[p] = np
		nf.Params = append(nf.Params, np)
	}
	for k, c := range f.consts {
		nc := &Value{ID: c.ID, Op: OpConst, Type: c.Type, Const: c.Const}
		vmap[c] = nc
		nf.consts[k] = nc
	}
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Fn: nf}
		bmap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	cloneInstr := func(in *Value, nb *Block) *Value {
		ni := &Value{
			ID: in.ID, Op: in.Op, Type: in.Type, Pred: in.Pred,
			Const: in.Const, Lit: in.Lit, Lit2: in.Lit2, Callee: in.Callee,
			Block: nb,
		}
		vmap[in] = ni
		return ni
	}
	// First pass: create all instruction shells (arguments may reference
	// instructions in later blocks through φ-nodes).
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			nb.Instrs = append(nb.Instrs, cloneInstr(in, nb))
		}
		if b.Term != nil {
			nb.Term = cloneInstr(b.Term, nb)
		}
	}
	// Second pass: wire arguments, incoming blocks and branch targets.
	wire := func(in, ni *Value) {
		if len(in.Args) > 0 {
			ni.Args = make([]*Value, len(in.Args))
			for i, a := range in.Args {
				ni.Args[i] = vmap[a]
			}
		}
		if len(in.Incoming) > 0 {
			ni.Incoming = make([]*Block, len(in.Incoming))
			for i, ib := range in.Incoming {
				ni.Incoming[i] = bmap[ib]
			}
		}
		if len(in.Targets) > 0 {
			ni.Targets = make([]*Block, len(in.Targets))
			for i, tb := range in.Targets {
				ni.Targets[i] = bmap[tb]
			}
		}
	}
	for _, b := range f.Blocks {
		nb := bmap[b]
		for i, in := range b.Instrs {
			wire(in, nb.Instrs[i])
		}
		if b.Term != nil {
			wire(b.Term, nb.Term)
		}
	}
	return nf
}
