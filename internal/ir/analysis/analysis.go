// Package analysis implements the loop analyses behind the paper's
// linear-time bytecode translation (§IV-C/D): back-edge loop detection with
// natural-loop membership, a loop-contiguous block layout, and the
// loop-aware liveness algorithm of Fig. 11. They read the function's
// control-flow facts (reverse postorder, predecessors, dominator tree) from
// the ir.CFG the verifier checked it against.
package analysis

import (
	"cmp"
	"slices"

	"aqe/internal/ir"
)

// Loop describes one natural loop. After layout, the loop's blocks occupy
// the contiguous position interval [First, Last]. The entry block heads a
// pseudo-loop spanning the whole function (the paper: "we pretend that the
// whole function body is part of one large loop").
type Loop struct {
	Head   *ir.Block
	First  int // layout position of Head
	Last   int // layout position of the loop's last block
	Parent *Loop
	Depth  int // nesting depth; the pseudo-loop has depth 0

	members []*ir.Block // including blocks of nested loops
	// chain is the RPO numbers of the heads of the loop and of every loop
	// enclosing it, outermost first: the layout's sort key.
	chain []int
}

// Contains reports whether layout position n falls inside the loop.
func (l *Loop) Contains(n int) bool { return l.First <= n && n <= l.Last }

// NumBlocks returns the loop's block count (including nested loops).
func (l *Loop) NumBlocks() int { return len(l.members) }

// LoopInfo is the result of loop detection: the loop forest rooted at the
// pseudo-loop, the innermost enclosing loop of every block, and a block
// layout in which every loop is contiguous.
type LoopInfo struct {
	Root  *Loop
	Loops []*Loop // ordered by First; Loops[0] == Root

	// Order is the loop-contiguous block layout used for live ranges and
	// code emission; Pos maps block ID -> position (-1 if unreachable).
	Order []*ir.Block
	Pos   []int

	// Innermost[i] is the innermost loop of the block at position i.
	Innermost []*Loop

	// Irreducible is set when the CFG has a retreat edge to a block that
	// does not dominate its source. Liveness falls back to whole-function
	// ranges in that case; the query code generator never produces such
	// CFGs, but the translator must stay correct on arbitrary input.
	Irreducible bool
}

// InnermostOf returns the innermost loop containing block b.
func (li *LoopInfo) InnermostOf(b *ir.Block) *Loop { return li.Innermost[li.Pos[b.ID]] }

// FindLoops detects natural loops via back edges (an edge B -> B' where B'
// dominates B) and computes a block layout where every loop is contiguous:
// blocks are ordered lexicographically by their chain of enclosing loop
// heads (in reverse postorder), then by their own reverse-postorder number.
// Contiguity is what makes a live range representable as a single interval
// without the unsoundness of raw-RPO intervals, where a loop's exit block
// can be numbered inside the loop and an escaping value's range would not
// cover the loop head.
func FindLoops(cfg *ir.CFG) *LoopInfo {
	f := cfg.F
	li := &LoopInfo{}
	n := len(cfg.RPO)

	// Loop heads in RPO order: blocks entered by a back edge, from a
	// predecessor they dominate. Outer heads come before the heads they
	// enclose, because an outer head dominates inner ones. A retreat edge
	// into a block that does not dominate its source is irreducible.
	var heads []*ir.Block
	for _, b := range cfg.RPO {
		for _, s := range b.Succs() {
			if cfg.RPONum[s.ID] <= cfg.RPONum[b.ID] && !cfg.Dominates(s, b) {
				li.Irreducible = true
			}
		}
		for _, p := range cfg.Preds[b.ID] {
			if cfg.Dominates(b, p) {
				heads = append(heads, b)
				break
			}
		}
	}

	// The pseudo-loop, which every reachable block belongs to, and one loop
	// per head. The loops' member lists and head chains are carved out of
	// one growing array each.
	loops := make([]Loop, 1+len(heads))
	root := &loops[0]
	root.Head, root.members = f.Entry(), cfg.RPO
	chains := []int{cfg.RPONum[root.Head.ID]}
	root.chain = chains[:1:1]
	li.Root = root
	li.Loops = append(make([]*Loop, 0, len(loops)), root)

	// Natural loop membership: walk backwards from each latch to the head.
	// innerOf[b] tracks the innermost loop seen so far; processing heads
	// outer-to-inner means later assignments are the inner ones.
	innerOf := make([]*Loop, len(f.Blocks))
	for _, b := range cfg.RPO {
		innerOf[b.ID] = root
	}
	inLoop := make([]bool, len(f.Blocks)) // scratch, reset per loop
	stack := make([]*ir.Block, 0, n)
	var members []*ir.Block
	add := func(b *ir.Block) {
		if !inLoop[b.ID] {
			inLoop[b.ID] = true
			members = append(members, b)
			stack = append(stack, b)
		}
	}
	for i, h := range heads {
		l := &loops[1+i]
		l.Head, l.Parent = h, innerOf[h.ID]
		l.Depth = l.Parent.Depth + 1
		c := len(chains)
		chains = append(append(chains, l.Parent.chain...), cfg.RPONum[h.ID])
		l.chain = chains[c:len(chains):len(chains)]
		m := len(members)
		inLoop[h.ID] = true
		members = append(members, h)
		for _, p := range cfg.Preds[h.ID] {
			if cfg.Dominates(h, p) { // a latch
				add(p)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range cfg.Preds[b.ID] {
				if cfg.RPONum[p.ID] >= 0 {
					add(p)
				}
			}
		}
		l.members = members[m:len(members):len(members)]
		for _, b := range l.members {
			inLoop[b.ID] = false
			innerOf[b.ID] = l
		}
		li.Loops = append(li.Loops, l)
	}

	// Layout: lexicographic order over (loop-head chain, own RPO number).
	li.Order = slices.Clone(cfg.RPO)
	// key returns element k of block b's sort key, -1 past its end.
	key := func(b *ir.Block, k int) int {
		chain := innerOf[b.ID].chain
		switch {
		case k < len(chain):
			return chain[k]
		case k == len(chain):
			return cfg.RPONum[b.ID]
		}
		return -1
	}
	slices.SortStableFunc(li.Order, func(a, b *ir.Block) int {
		for k := 0; ; k++ {
			if ea, eb := key(a, k), key(b, k); ea != eb || ea < 0 {
				return cmp.Compare(ea, eb)
			}
		}
	})
	li.Pos = make([]int, len(f.Blocks))
	for i := range li.Pos {
		li.Pos[i] = -1
	}
	for i, b := range li.Order {
		li.Pos[b.ID] = i
	}

	// Extents and innermost-per-position.
	for _, l := range li.Loops {
		l.First = li.Pos[l.Head.ID]
		l.Last = l.First
		for _, b := range l.members {
			if p := li.Pos[b.ID]; p > l.Last {
				l.Last = p
			}
		}
	}
	slices.SortFunc(li.Loops, func(a, b *Loop) int { return cmp.Compare(a.First, b.First) })
	li.Innermost = make([]*Loop, n)
	for i, b := range li.Order {
		li.Innermost[i] = innerOf[b.ID]
	}
	return li
}

// Interval is a live range over layout positions, inclusive on both ends.
// An empty interval has Start > End.
type Interval struct {
	Start, End int
}

// Empty reports whether the interval covers no blocks.
func (iv Interval) Empty() bool { return iv.Start > iv.End }

func (iv *Interval) extendBlock(n int) {
	if n < iv.Start {
		iv.Start = n
	}
	if n > iv.End {
		iv.End = n
	}
}

func (iv *Interval) extendLoop(l *Loop) {
	if l.First < iv.Start {
		iv.Start = l.First
	}
	if l.Last > iv.End {
		iv.End = l.Last
	}
}

// Liveness holds the computed live range of every instruction value,
// indexed by value ID, over the loop-contiguous block layout.
type Liveness struct {
	CFG    *ir.CFG
	Loops  *LoopInfo
	Ranges []Interval // by value ID
}

// Order returns the block layout live ranges refer to.
func (lv *Liveness) Order() []*ir.Block { return lv.Loops.Order }

// Pos returns the layout position of block b.
func (lv *Liveness) Pos(b *ir.Block) int { return lv.Loops.Pos[b.ID] }

// ComputeLiveness runs the paper's Fig. 11 algorithm: for every value v,
// collect the blocks B_v containing its definition and uses (with φ-inputs
// read — and the φ value written — at the end of the incoming block), find
// the innermost loop C_v containing all of B_v, and build the live range by
// extending with each block directly in C_v, or with the extent of the
// outermost loop below C_v containing blocks nested deeper. Runtime is
// linear in the size of the function up to the loop-forest depth and the
// O(n log n) layout sort.
func ComputeLiveness(cfg *ir.CFG) *Liveness {
	f := cfg.F
	loops := FindLoops(cfg)
	lv := &Liveness{CFG: cfg, Loops: loops}
	lv.Ranges = make([]Interval, f.NumValues())
	for i := range lv.Ranges {
		lv.Ranges[i] = Interval{Start: int(^uint(0) >> 1), End: -1}
	}

	if loops.Irreducible {
		// Correctness fallback: every value lives for the whole function.
		last := len(loops.Order) - 1
		for _, b := range loops.Order {
			for _, in := range b.Instrs {
				if in.Type != ir.Void {
					lv.Ranges[in.ID] = Interval{Start: 0, End: last}
				}
			}
		}
		return lv
	}

	// Streaming Fig. 11: maintain per value the innermost common loop C_v
	// seen so far. When a new occurrence forces C_v to widen, the interval
	// accumulated so far is retroactively lifted to the extent of the
	// outermost loop below the new C_v containing the old one.
	cv := make([]*Loop, f.NumValues())

	occur := func(v *ir.Value, n int) {
		if n < 0 {
			return // unreachable block
		}
		r := &lv.Ranges[v.ID]
		inner := loops.Innermost[n]
		c := cv[v.ID]
		if c == nil {
			cv[v.ID] = inner
			r.extendBlock(n)
			return
		}
		if !c.Contains(n) {
			newC := c
			for !newC.Contains(n) {
				newC = newC.Parent
			}
			l := c
			for l.Parent != newC {
				l = l.Parent
			}
			r.extendLoop(l)
			cv[v.ID] = newC
			c = newC
		}
		if inner == c {
			r.extendBlock(n)
		} else {
			// Outermost loop below C_v containing n.
			l := inner
			for l.Parent != c {
				l = l.Parent
			}
			r.extendLoop(l)
		}
	}

	for _, b := range loops.Order {
		n := loops.Pos[b.ID]
		for _, in := range b.Instrs {
			if in.Type != ir.Void {
				occur(in, n)
			}
			if in.Op == ir.OpPhi {
				// φ-inputs are read at the end of the incoming block, and
				// the φ value itself is written there (§IV-D): both the
				// argument and the φ must be live in the incoming block.
				for i, a := range in.Args {
					n2 := loops.Pos[in.Incoming[i].ID]
					if a.IsInstr() {
						occur(a, n2)
					}
					occur(in, n2)
				}
				continue
			}
			for _, a := range in.Args {
				if a.IsInstr() {
					occur(a, n)
				}
			}
		}
		for _, a := range b.Term.Args {
			if a.IsInstr() {
				occur(a, n)
			}
		}
	}
	return lv
}

// Range returns the live range of value v (empty for dead values and
// non-instructions).
func (lv *Liveness) Range(v *ir.Value) Interval { return lv.Ranges[v.ID] }

// MaxOverlap returns the maximum number of simultaneously live values over
// all layout positions — a lower bound on the register file size and a
// useful diagnostic for allocator quality tests.
func (lv *Liveness) MaxOverlap() int {
	n := len(lv.Loops.Order)
	delta := make([]int, n+1)
	for _, iv := range lv.Ranges {
		if iv.Empty() {
			continue
		}
		delta[iv.Start]++
		delta[iv.End+1]--
	}
	cur, max := 0, 0
	for i := 0; i < n; i++ {
		cur += delta[i]
		if cur > max {
			max = cur
		}
	}
	return max
}
