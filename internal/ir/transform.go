package ir

// SplitCriticalEdges splits every critical edge (an edge from a block with
// multiple successors to a block with multiple predecessors) that targets a
// block containing φ-nodes, by inserting an empty forwarding block. Both
// the bytecode translator and the native backend lower φ-nodes to
// register moves at the end of the predecessor; on a critical edge such
// moves would also execute when the branch takes its other target, so the
// edge must be split first. Returns the number of edges split. Idempotent.
func (f *Function) SplitCriticalEdges() int {
	preds := f.Preds()
	split := 0
	// Snapshot the block list: we append while iterating.
	orig := make([]*Block, len(f.Blocks))
	copy(orig, f.Blocks)
	for _, b := range orig {
		if len(b.Phis()) == 0 || len(preds[b.ID]) < 2 {
			continue
		}
		for _, p := range preds[b.ID] {
			if len(p.Succs()) < 2 {
				continue
			}
			// Split edge p -> b.
			mid := f.NewBlock()
			term := f.newInstr(OpBr, Void)
			term.Targets = []*Block{b}
			term.Block = mid
			mid.Term = term
			// Replace one occurrence each, so a (degenerate) double edge
			// p -> b is split into two distinct forwarding blocks.
			for i, t := range p.Term.Targets {
				if t == b {
					p.Term.Targets[i] = mid
					break
				}
			}
			for _, phi := range b.Phis() {
				for i, in := range phi.Incoming {
					if in == p {
						phi.Incoming[i] = mid
						break
					}
				}
			}
			split++
		}
	}
	return split
}
