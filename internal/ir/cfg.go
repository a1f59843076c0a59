package ir

// CFG is the control-flow facts of one function: the reverse postorder of
// its reachable blocks, their predecessor lists and the dominator tree,
// numbered so that a dominance query is an O(1) interval test (§IV-D,
// Fig. 12). The verifier checks the function against them (VerifyCFG) and
// the translator's loop and liveness analyses (internal/ir/analysis) read
// the same facts, so a function is analysed once per translation. Editing
// the function's blocks invalidates them.
type CFG struct {
	F *Function
	// RPO is the list of reachable blocks in reverse postorder. RPONum
	// maps block ID -> position in RPO (-1 for unreachable blocks).
	RPO    []*Block
	RPONum []int
	Preds  [][]*Block
	// Idom maps block ID -> immediate dominator; nil for the entry and
	// for unreachable blocks.
	Idom []*Block

	// pre numbers the dominator tree in preorder, children in RPO; a
	// block's subtree occupies [pre, pre+size). Unreachable blocks have
	// size 0.
	pre, size []int
}

// NewCFG computes the control-flow facts of f, which must have an entry
// block and a terminator in every block (Verify checks both first).
func NewCFG(f *Function) *CFG {
	n := len(f.Blocks)
	ints := make([]int, 3*n)
	c := &CFG{F: f, RPO: f.ReversePostorder(), Preds: f.Preds(), Idom: make([]*Block, n),
		RPONum: ints[:n:n], pre: ints[n : 2*n : 2*n], size: ints[2*n:]}
	for i := range c.RPONum {
		c.RPONum[i] = -1 // unreachable
	}
	for i, b := range c.RPO {
		c.RPONum[b.ID] = i
	}
	c.dominators()
	c.number()
	return c
}

// dominators computes Idom with the Cooper-Harvey-Kennedy iterative
// algorithm over the reverse postorder. On the reducible CFGs a query
// compiler emits it converges in two passes, effectively linear, which is
// what the translation budget requires.
func (c *CFG) dominators() {
	entry := c.F.Entry()
	c.Idom[entry.ID] = entry
	intersect := func(a, b *Block) *Block {
		for a != b {
			for c.RPONum[a.ID] > c.RPONum[b.ID] {
				a = c.Idom[a.ID]
			}
			for c.RPONum[b.ID] > c.RPONum[a.ID] {
				b = c.Idom[b.ID]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			var ni *Block
			for _, p := range c.Preds[b.ID] {
				if c.Idom[p.ID] == nil {
					continue
				}
				if ni == nil {
					ni = p
				} else {
					ni = intersect(p, ni)
				}
			}
			if ni != nil && c.Idom[b.ID] != ni {
				c.Idom[b.ID] = ni
				changed = true
			}
		}
	}
	c.Idom[entry.ID] = nil
}

// number assigns the preorder intervals without a tree walk: a block's
// immediate dominator precedes it in the RPO, so subtree sizes accumulate
// in one backward pass, and a forward pass hands each child the next free
// slice of its parent's interval.
func (c *CFG) number() {
	for i := len(c.RPO) - 1; i >= 0; i-- {
		b := c.RPO[i]
		c.size[b.ID]++
		if p := c.Idom[b.ID]; p != nil {
			c.size[p.ID] += c.size[b.ID]
		}
	}
	// next[p] is the first preorder number not yet given below p (0 until
	// p's first child is numbered).
	next := make([]int, len(c.pre))
	for _, b := range c.RPO[1:] {
		p := c.Idom[b.ID]
		if next[p.ID] == 0 {
			next[p.ID] = c.pre[p.ID] + 1
		}
		c.pre[b.ID] = next[p.ID]
		next[p.ID] += c.size[b.ID]
	}
}

// Dominates reports whether a dominates b (reflexively). An unreachable
// block dominates nothing and is dominated by nothing.
func (c *CFG) Dominates(a, b *Block) bool {
	return c.size[b.ID] > 0 && c.pre[a.ID] <= c.pre[b.ID] && c.pre[b.ID] < c.pre[a.ID]+c.size[a.ID]
}

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder of a depth-first traversal: every block appears after all of
// its non-back-edge predecessors, which matches control-flow order (§IV-D).
func (f *Function) ReversePostorder() []*Block {
	seen := make([]bool, len(f.Blocks))
	post := make([]*Block, 0, len(f.Blocks))
	type frame struct {
		b *Block
		i int
	}
	stack := append(make([]frame, 0, len(f.Blocks)), frame{f.Entry(), 0})
	seen[f.Entry().ID] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := fr.b.Succs()
		if fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
