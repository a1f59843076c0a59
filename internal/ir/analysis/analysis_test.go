package analysis

import (
	"testing"

	"aqe/internal/ir"
)

// buildFig10 reproduces the paper's Fig. 10 CFG:
//
//	1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 7, with back edge 6 -> 3
//
// (reverse-postorder labels; block indices here are creation order). The
// value v is defined in block 2 and used in block 5; the paper derives the
// live range [2,6].
func buildFig10(t *testing.T) (*ir.Function, *ir.Value, []*ir.Block) {
	t.Helper()
	m := ir.NewModule("fig10")
	f := m.NewFunc("f", ir.I64)
	blocks := make([]*ir.Block, 8) // 1-indexed to match the figure
	b := ir.NewBuilder(f)
	blocks[1] = b.B
	for i := 2; i <= 7; i++ {
		blocks[i] = f.NewBlock()
	}
	one := b.ConstI64(1)

	b.SetBlock(blocks[1])
	b.Br(blocks[2])

	b.SetBlock(blocks[2])
	v := b.Add(f.Params[0], one) // v = f(...)
	b.Br(blocks[3])

	b.SetBlock(blocks[3]) // loop head
	c3 := b.ICmp(ir.SGt, f.Params[0], one)
	b.CondBr(c3, blocks[4], blocks[5])

	b.SetBlock(blocks[4])
	b.Br(blocks[6])

	b.SetBlock(blocks[5])
	z := b.Add(v, one) // z = v
	_ = z
	b.Br(blocks[6])

	b.SetBlock(blocks[6])
	c6 := b.ICmp(ir.Eq, f.Params[0], one)
	b.CondBr(c6, blocks[3], blocks[7]) // back edge 6 -> 3

	b.SetBlock(blocks[7])
	b.RetVoid()

	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f, v, blocks
}

func rpoOf(cfg *ir.CFG, b *ir.Block) int { return cfg.RPONum[b.ID] }

func TestDomTreeFig10(t *testing.T) {
	f, _, blocks := buildFig10(t)
	dom := ir.NewCFG(f)
	// Block 2 dominates everything below it; 4 and 5 do not dominate 6.
	if !dom.Dominates(blocks[2], blocks[6]) {
		t.Error("2 should dominate 6")
	}
	if !dom.Dominates(blocks[3], blocks[7]) {
		t.Error("3 should dominate 7")
	}
	if dom.Dominates(blocks[4], blocks[6]) {
		t.Error("4 must not dominate 6")
	}
	if dom.Dominates(blocks[5], blocks[6]) {
		t.Error("5 must not dominate 6")
	}
	if !dom.Dominates(blocks[3], blocks[3]) {
		t.Error("dominance must be reflexive")
	}
	if idom := dom.Idom[blocks[6].ID]; idom != blocks[3] {
		t.Errorf("idom(6) = b%d, want b%d (block 3)", idom.ID, blocks[3].ID)
	}
}

func TestLoopDetectionFig10(t *testing.T) {
	f, _, blocks := buildFig10(t)
	cfg := ir.NewCFG(f)
	li := FindLoops(cfg)

	// Two loops: the whole-function pseudo-loop plus the loop headed at
	// block 3 spanning [3,6] in figure labels.
	if len(li.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(li.Loops))
	}
	var loop *Loop
	for _, l := range li.Loops {
		if l != li.Root && l.Head == blocks[3] {
			loop = l
		}
	}
	if loop == nil {
		t.Fatal("block 3 not detected as loop head")
	}
	if loop.Depth != 1 || loop.Parent != li.Root {
		t.Errorf("loop nesting wrong: depth=%d", loop.Depth)
	}
	if loop.First != rpoOf(cfg, blocks[3]) || loop.Last != rpoOf(cfg, blocks[6]) {
		t.Errorf("loop extent [%d,%d], want [%d,%d]",
			loop.First, loop.Last, rpoOf(cfg, blocks[3]), rpoOf(cfg, blocks[6]))
	}
	// Innermost loop: blocks 3..6 belong to the inner loop, 1,2,7 to root.
	for i := 3; i <= 6; i++ {
		if li.Innermost[rpoOf(cfg, blocks[i])] != loop {
			t.Errorf("block %d not associated with inner loop", i)
		}
	}
	for _, i := range []int{1, 2, 7} {
		if li.Innermost[rpoOf(cfg, blocks[i])] != li.Root {
			t.Errorf("block %d should associate with the pseudo-loop", i)
		}
	}
}

func TestLivenessFig10(t *testing.T) {
	f, v, blocks := buildFig10(t)
	lv := ComputeLiveness(ir.NewCFG(f))
	cfg := lv.CFG
	// The paper: v defined in 2, used in 5 inside loop [3,6] => range [2,6].
	r := lv.Range(v)
	want := Interval{Start: rpoOf(cfg, blocks[2]), End: rpoOf(cfg, blocks[6])}
	if r != want {
		t.Errorf("range(v) = %+v, want %+v", r, want)
	}
}

func TestLivenessSingleBlockValue(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64)
	b := ir.NewBuilder(f)
	v := b.Add(f.Params[0], b.ConstI64(1))
	w := b.Mul(v, v)
	b.Ret(w)
	lv := ComputeLiveness(ir.NewCFG(f))
	if r := lv.Range(v); r.Start != 0 || r.End != 0 {
		t.Errorf("range(v) = %+v, want [0,0]", r)
	}
}

func TestLivenessLoopCarriedPhi(t *testing.T) {
	// i = phi(0, i+1) in a loop: i's range must span the whole loop
	// including the latch where its next value is computed.
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	zero := b.ConstI64(0)
	one := b.ConstI64(1)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, f.Params[0])
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	b.SetBlock(exit)
	b.Ret(i)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	lv := ComputeLiveness(ir.NewCFG(f))
	ri := lv.Range(i)
	// i is live from entry (written at the end of the entry block) through
	// the loop and is returned in exit.
	if ri.Start > lv.Pos(entry) || ri.End < lv.Pos(exit) {
		t.Errorf("phi range %+v does not cover entry..exit", ri)
	}
	// i2 is defined in body and consumed by the φ-move at the end of body:
	// it is live exactly in the body block (§IV-D φ handling).
	ri2 := lv.Range(i2)
	want := Interval{Start: lv.Pos(body), End: lv.Pos(body)}
	if ri2 != want {
		t.Errorf("latch value range %+v, want %+v", ri2, want)
	}
}

// TestLivenessEscapingLoopDef checks the case that forces retroactive
// lifting: a value defined inside a loop but used after it must be live for
// the entire loop, or an earlier in-loop value could share its register and
// clobber it on the next iteration.
func TestLivenessEscapingLoopDef(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64)
	b := ir.NewBuilder(f)
	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	zero := b.ConstI64(0)
	one := b.ConstI64(1)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, f.Params[0])
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	v := b.Mul(i, i) // defined inside loop
	i2 := b.Add(i, one)
	b.Br(head)
	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, i2, body)
	b.SetBlock(exit)
	b.Ret(v) // used outside the loop
	// NOTE: v does not dominate exit on the zero-trip path; for this test
	// we only care about liveness, and the verifier would reject it, so we
	// skip verification deliberately.

	lv := ComputeLiveness(ir.NewCFG(f))
	rv := lv.Range(v)
	if rv.Start > lv.Pos(head) {
		t.Errorf("escaping def range %+v must start at the loop head %d",
			rv, lv.Pos(head))
	}
	if rv.End < lv.Pos(exit) {
		t.Errorf("escaping def range %+v must reach the use at %d",
			rv, lv.Pos(exit))
	}
}

func TestMaxOverlap(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64)
	b := ir.NewBuilder(f)
	v1 := b.Add(f.Params[0], b.ConstI64(1))
	v2 := b.Add(f.Params[0], b.ConstI64(2))
	v3 := b.Add(v1, v2)
	b.Ret(v3)
	lv := ComputeLiveness(ir.NewCFG(f))
	if got := lv.MaxOverlap(); got != 3 {
		t.Errorf("MaxOverlap = %d, want 3", got)
	}
}

// TestLivenessLinearScaling is a coarse guard that the liveness
// computation stays near-linear: doubling the function size should roughly
// double the work, not quadruple it. We assert structure (it completes and
// ranges are sane) rather than wall-clock, which is noisy.
func TestLivenessLargeFunction(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("big", ir.I64)
	b := ir.NewBuilder(f)
	v := f.Params[0]
	const chains = 2000
	for i := 0; i < chains; i++ {
		v = b.Add(v, b.ConstI64(int64(i%7+1)))
	}
	b.Ret(v)
	lv := ComputeLiveness(ir.NewCFG(f))
	// Ranges are block-granular and the function is a single block, so
	// every chained value spans [0,0] and MaxOverlap counts them all.
	if got := lv.MaxOverlap(); got != chains {
		t.Errorf("MaxOverlap = %d, want %d (block-granular)", got, chains)
	}
}
