package ir

// CheckedBranch recognizes the overflow-checked arithmetic group that ends
// b, the last of the paper's §IV-F macro-op patterns: an sadd/ssub/smul.ovf
// and its extractvalue 0 and extractvalue 1 are the block's last three
// instructions, nothing but the two extracts reads the pair, and b's
// condbr branches on the flag, which nothing else reads. Its then-target
// is the overflow target. uses[v.ID] counts v's operand uses in the
// function. It returns the ovf op and the value extract, or nils.
//
// Both translators fuse the group through this one recognizer: the
// bytecode VM into a checked-arithmetic-and-branch opcode, the native
// back end into the op plus JO.
func CheckedBranch(b *Block, uses []int32) (op, result *Value) {
	t := b.Term
	if t == nil || t.Op != OpCondBr {
		return nil, nil
	}
	flag := t.Args[0]
	if !flag.IsInstr() || flag.Block != b || uses[flag.ID] != 1 ||
		flag.Op != OpExtractValue || flag.Lit != 1 {
		return nil, nil
	}
	pair := flag.Args[0]
	if pair.Block != b || pair.Type != Pair {
		return nil, nil
	}
	switch pair.Op {
	case OpSAddOvf, OpSSubOvf, OpSMulOvf:
	default:
		return nil, nil
	}
	// Nothing may read the result before the fused op produces it, so the
	// group is the block's tail; the value extract receives the register.
	n := len(b.Instrs)
	if n < 3 || uses[pair.ID] != 2 {
		return nil, nil
	}
	found := 0
	for _, in := range b.Instrs[n-3:] {
		if in == pair || in == flag {
			found++
		} else {
			result = in
		}
	}
	if found != 2 || result.Op != OpExtractValue || result.Lit != 0 || result.Args[0] != pair {
		return nil, nil
	}
	return pair, result
}
