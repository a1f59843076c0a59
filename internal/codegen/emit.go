package codegen

import (
	"fmt"

	"aqe/internal/expr"
	"aqe/internal/ir"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// resolver resolves column idx of the current pipeline schema to its value
// for the current tuple.
type resolver func(idx int) expr.Val

// dictResolver resolves column idx of the current pipeline schema to its
// order-preserving dictionary (nil when not dictionary-encoded) and emits
// the load of its code for the current tuple on demand. Code loads are
// deliberately not memoized: each is a single i32 load, and a fresh load
// at every use is trivially dominance-safe even inside CASE arms, where a
// cached first-use definition would not dominate later uses.
type dictResolver struct {
	dict func(idx int) *storage.Dict
	code func(idx int) expr.Val
}

// cached memoizes a resolver. Memoization is safe because code generation
// only moves forward into dominated blocks along the pipeline spine, so a
// value emitted at first use dominates all later uses.
func cached(res resolver) resolver {
	memo := map[int]expr.Val{}
	return func(i int) expr.Val {
		if v, ok := memo[i]; ok {
			return v
		}
		v := res(i)
		memo[i] = v
		return v
	}
}

// pgen is the state of generating one worker function.
//
// Control-flow invariant shared by ops and sinks: every apply/emit leaves
// the builder positioned in exactly one open (unterminated) block meaning
// "this tuple has been fully processed — fall through"; paths that reject
// the current tuple (failed filters, exhausted anti-joins) branch to
// p.cont, the innermost continue target (next source tuple, or next hash
// chain candidate inside an inner-join walk).
type pgen struct {
	g     *cgen
	f     *ir.Function
	b     *ir.Builder
	cg    *expr.CG
	state *ir.Value
	local *ir.Value
	cont  *ir.Block
	// dres resolves dictionary codes of the current schema; nil when the
	// pipeline source has no dictionary-encoded columns in scope. Ops that
	// change the schema swap it alongside the value resolver.
	dres *dictResolver
}

// gen compiles an expression with column references resolved by res and
// dictionary rewrites driven by the pipeline's current dictResolver.
func (p *pgen) gen(e expr.Expr, res resolver) expr.Val {
	old, oldDict, oldCode := p.cg.Col, p.cg.Dict, p.cg.CodeCol
	p.cg.Col = func(i int) expr.Val { return res(i) }
	if d := p.dres; d != nil {
		p.cg.Dict = func(i int) expr.DictRef {
			// The ok-pattern avoids handing expr a non-nil interface
			// wrapping a nil *storage.Dict.
			if sd := d.dict(i); sd != nil {
				return sd
			}
			return nil
		}
		p.cg.CodeCol = d.code
	} else {
		p.cg.Dict, p.cg.CodeCol = nil, nil
	}
	v := p.cg.Gen(e)
	p.cg.Col, p.cg.Dict, p.cg.CodeCol = old, oldDict, oldCode
	return v
}

// genBool compiles a boolean expression to an i1 value.
func (p *pgen) genBool(e expr.Expr, res resolver) *ir.Value {
	v := p.gen(e, res).X
	if v.Type != ir.I1 {
		v = p.b.ICmp(ir.Ne, v, p.b.ConstI64(0))
	}
	return v
}

// hashKeys emits the hash computation over key values (splitmix-style
// mixing for integers, the runtime hash for strings). Hash arithmetic is
// deliberately unchecked: wraparound is part of the function.
func (p *pgen) hashKeys(vals []expr.Val, types []expr.Type) *ir.Value {
	b := p.b
	var h *ir.Value
	for i, v := range vals {
		var kh *ir.Value
		if types[i].Kind == expr.KString {
			kh = b.Call("str_hash", ir.I64, v.X, v.Len)
		} else {
			kh = b.Mul(v.X, b.ConstI64(-0x61c8864680b583eb)) // 0x9E3779B97F4A7C15
			kh = b.Xor(kh, b.LShr(kh, b.ConstI64(32)))
			kh = b.Mul(kh, b.ConstI64(-0x7ee3623a03d3b4a3)) // 0x811c9dc5c85c7e5d
			kh = b.Xor(kh, b.LShr(kh, b.ConstI64(29)))
		}
		if h == nil {
			h = kh
		} else {
			h = b.Mul(b.Xor(h, kh), b.ConstI64(-0x61c8864680b583eb))
		}
	}
	return h
}

// loadAt emits a typed load of a tuple field at addr+off.
func (p *pgen) loadAt(base *ir.Value, off int, t expr.Type) expr.Val {
	b := p.b
	switch t.Kind {
	case expr.KFloat:
		return expr.Val{X: b.Load(ir.F64, b.GEP(base, nil, 0, int64(off)))}
	case expr.KString:
		addr := b.Load(ir.I64, b.GEP(base, nil, 0, int64(off)))
		n := b.Load(ir.I64, b.GEP(base, nil, 0, int64(off+8)))
		return expr.Val{X: addr, Len: n}
	default:
		return expr.Val{X: b.Load(ir.I64, b.GEP(base, nil, 0, int64(off)))}
	}
}

// storeAt emits a typed store of v to base+off.
func (p *pgen) storeAt(base *ir.Value, off int, v expr.Val, t expr.Type) {
	b := p.b
	x := v.X
	switch t.Kind {
	case expr.KString:
		b.Store(b.GEP(base, nil, 0, int64(off)), x)
		b.Store(b.GEP(base, nil, 0, int64(off+8)), v.Len)
	case expr.KBool:
		if x.Type == ir.I1 {
			x = b.ZExt(x, ir.I64)
		}
		b.Store(b.GEP(base, nil, 0, int64(off)), x)
	default:
		b.Store(b.GEP(base, nil, 0, int64(off)), x)
	}
}

// ---- worker scaffolding ----

// emitWorker builds the morsel-loop scaffold (the paper's Fig. 4 worker
// shape) and runs body generation inside it. mkRes builds the source
// resolver given the loop induction variable.
func (g *cgen) emitWorker(label string, mkRes func(p *pgen, i *ir.Value) resolver,
	ops []pipeOp, sk sink) *ir.Function {

	f := g.mod.NewFunc(fmt.Sprintf("worker%d", len(g.q.Pipelines)),
		ir.I64, ir.I64, ir.I64, ir.I64) // state, local, begin, end
	b := ir.NewBuilder(f)
	p := &pgen{g: g, f: f, b: b, state: f.Params[0], local: f.Params[1]}
	p.cg = &expr.CG{B: b, Pattern: g.internPattern, StrLit: g.internLit,
		OnDictRewrite: g.noteDictRewrite,
		Param:         func(idx int, t expr.Type) expr.Val { return g.genParam(b, idx, t) }}
	g.pipeRewrites = 0

	entry := b.B
	head := f.NewBlock()
	body := f.NewBlock()
	contB := f.NewBlock()
	exit := f.NewBlock()

	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(ir.I64)
	cond := b.ICmp(ir.SLt, i, f.Params[3])
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	p.cont = contB
	res := cached(mkRes(p, i))
	apply(p, ops, res, sk)
	b.Br(contB)

	b.SetBlock(contB)
	i2 := b.Add(i, b.ConstI64(1))
	b.Br(head)
	ir.AddIncoming(i, f.Params[2], entry)
	ir.AddIncoming(i, i2, contB)

	b.SetBlock(exit)
	b.RetVoid()
	return f
}

// apply runs the operator chain in continuation-passing style and emits
// the sink innermost.
func apply(p *pgen, ops []pipeOp, res resolver, sk sink) {
	var step func(k int, r resolver)
	step = func(k int, r resolver) {
		if k == len(ops) {
			sk.emit(p, r)
			return
		}
		ops[k].apply(p, r, func(r2 resolver) { step(k+1, r2) })
	}
	step(0, res)
}

func (g *cgen) addPipeline(f *ir.Function, label string, table *storage.Table,
	aggSrc int, sk sink) {
	pl := &Pipeline{
		ID: len(g.q.Pipelines), Fn: f, Label: label,
		Table: table, AggSource: aggSrc, JoinSource: -1,
		SinkJoin: -1, SinkAgg: -1, SinkOut: -1, SinkMark: -1,
		DictRewrites: g.pipeRewrites,
	}
	sk.annotate(pl)
	g.q.Pipelines = append(g.q.Pipelines, pl)
}

// emitScanPipeline generates a pipeline sourced from a table scan.
func (g *cgen) emitScanPipeline(s *plan.Scan, ops []pipeOp, sk sink, label string) {
	// Disambiguate repeated scans of the same table (Fig. 14's
	// "scan partsupp 1 / 2").
	n := 1
	for _, pl := range g.q.Pipelines {
		if pl.Table == s.Table {
			n++
		}
	}
	if n > 1 {
		label = fmt.Sprintf("%s %d", label, n)
	}
	f := g.emitWorker(label, func(p *pgen, i *ir.Value) resolver {
		p.dres = g.scanDictResolver(p, s, i)
		return g.scanResolver(p, s, i)
	}, ops, sk)
	g.addPipeline(f, label, s.Table, -1, sk)
	g.q.Pipelines[len(g.q.Pipelines)-1].Prune = g.extractPrune(s)
}

func (g *cgen) scanResolver(p *pgen, s *plan.Scan, i *ir.Value) resolver {
	return func(j int) expr.Val {
		b := p.b
		c := s.Table.MustCol(s.Cols[j])
		base := b.ConstI64(int64(g.tableBase(c)))
		switch c.Kind {
		case storage.Char:
			v := b.Load(ir.I8, b.GEP(base, i, 1, 0))
			return expr.Val{X: b.ZExt(v, ir.I64)}
		case storage.Float64:
			return expr.Val{X: b.Load(ir.F64, b.GEP(base, i, 8, 0))}
		case storage.String:
			off := b.Load(ir.I64, b.GEP(base, i, 16, 0))
			n := b.Load(ir.I64, b.GEP(base, i, 16, 8))
			heap := b.ConstI64(int64(g.heapBase[c]))
			return expr.Val{X: b.Add(heap, off), Len: n}
		default:
			return expr.Val{X: b.Load(ir.I64, b.GEP(base, i, 8, 0))}
		}
	}
}

// scanDictResolver builds the dictionary resolver of a table scan: column
// j resolves to its order-preserving dictionary, and codes load as
// zero-extended i32 from the dictionary's code vector at the loop
// induction variable.
func (g *cgen) scanDictResolver(p *pgen, s *plan.Scan, i *ir.Value) *dictResolver {
	return &dictResolver{
		dict: func(j int) *storage.Dict {
			return s.Table.MustCol(s.Cols[j]).Dict()
		},
		code: func(j int) expr.Val {
			b := p.b
			d := s.Table.MustCol(s.Cols[j]).Dict()
			base := b.ConstI64(int64(g.dictBase(d)))
			v := b.Load(ir.I32, b.GEP(base, i, 4, 0))
			return expr.Val{X: b.ZExt(v, ir.I64)}
		},
	}
}

// emitPipeline generates a pipeline sourced from the groups of an
// aggregation (the scan over the merged hash table's dense index).
func (g *cgen) emitPipeline(_ *storage.Table, am *aggMeta, gb *plan.GroupBy,
	ops []pipeOp, sk sink, label string) {
	if label == "" {
		label = "hash table scan"
	}
	desc := &g.q.Aggs[am.id]
	f := g.emitWorker(label, func(p *pgen, i *ir.Value) resolver {
		b := p.b
		idxBase := b.Load(ir.I64, b.GEP(p.state, nil, 0, int64(desc.IndexStateOff)))
		e := b.Load(ir.I64, b.GEP(idxBase, i, 8, 0))
		return g.groupResolver(p, am, gb, e)
	}, ops, sk)
	g.addPipeline(f, label, nil, am.id, sk)
}

// emitJoinScanPipeline generates the last pipeline of a build-side join:
// a scan over the dense index of the build tuples the join emits, which
// the engine publishes at the mark layout's state slot once the probe has
// drained. Its schema is the build schema, then RightCount's match count,
// read from the mark where the engine left each tuple's total.
func (g *cgen) emitJoinScanPipeline(jm *joinMeta, j *plan.Join, ops []pipeOp, sk sink) {
	const label = "join scan"
	mk := jm.desc.Marks
	nb := len(j.Build.Schema())
	f := g.emitWorker(label, func(p *pgen, i *ir.Value) resolver {
		b := p.b
		idxBase := b.Load(ir.I64, b.GEP(p.state, nil, 0, int64(mk.IndexStateOff)))
		e := b.Load(ir.I64, b.GEP(idxBase, i, 8, 0))
		return func(c int) expr.Val {
			if c == nb {
				return expr.Val{X: b.Load(ir.I64, b.GEP(e, nil, 0, int64(mk.Off)))}
			}
			fld := jm.byIdx[c]
			return p.loadAt(e, fld.off, fld.t)
		}
	}, ops, sk)
	g.addPipeline(f, label, nil, -1, sk)
	g.q.Pipelines[len(g.q.Pipelines)-1].JoinSource = jm.id
}

// groupResolver resolves the GroupBy output schema against a group entry.
func (g *cgen) groupResolver(p *pgen, am *aggMeta, gb *plan.GroupBy, e *ir.Value) resolver {
	nk := len(gb.Keys)
	return func(j int) expr.Val {
		b := p.b
		if j < nk {
			return p.loadAt(e, am.keyOffs[j], gb.Keys[j].Type())
		}
		a := gb.Aggs[j-nk]
		slots := am.slotOffs[j-nk]
		switch a.Func {
		case plan.Avg:
			sum := p.loadAt(e, slots[0], sumSlotType(a))
			cnt := b.Load(ir.I64, b.GEP(e, nil, 0, int64(slots[1])))
			var sumF *ir.Value
			if a.Arg.Type().Kind == expr.KFloat {
				sumF = sum.X
			} else {
				sumF = b.SIToFP(sum.X)
				if s := a.Arg.Type().Scale; s > 0 {
					sumF = b.FDiv(sumF, b.ConstF64(float64(pow10(s))))
				}
			}
			return expr.Val{X: b.FDiv(sumF, b.SIToFP(cnt))}
		case plan.Sum:
			return p.loadAt(e, slots[0], sumSlotType(a))
		default: // Min/Max/Count/CountStar
			return expr.Val{X: b.Load(ir.I64, b.GEP(e, nil, 0, int64(slots[0])))}
		}
	}
}

func sumSlotType(a plan.AggExpr) expr.Type {
	if a.Arg.Type().Kind == expr.KFloat {
		return expr.TFloat
	}
	return a.Arg.Type()
}

func pow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

// ---- streaming operators ----

type filterOp struct{ cond expr.Expr }

func (op *filterOp) apply(p *pgen, res resolver, down func(resolver)) {
	// Force the referenced columns into the spine first: a column whose
	// first load were emitted inside a CASE arm of the condition would
	// not dominate later uses.
	force(res, op.cond)
	c := p.genBool(op.cond, res)
	pass := p.b.NewBlock()
	p.b.CondBr(c, pass, p.cont)
	p.b.SetBlock(pass)
	down(res)
}

// force pre-resolves every column referenced by the expressions in the
// current block, populating the resolver cache at a point that dominates
// all later uses.
func force(res resolver, exprs ...expr.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		collectCols(e, func(i int) { res(i) })
	}
}

type projectOp struct{ node *plan.Project }

func (op *projectOp) apply(p *pgen, res resolver, down func(resolver)) {
	// Projections evaluate eagerly in the spine (CASE arms re-join it),
	// so downstream uses see dominating definitions.
	vals := make([]expr.Val, len(op.node.Exprs))
	for j, e := range op.node.Exprs {
		force(res, e)
		vals[j] = p.gen(e, res)
	}
	// Bare column references keep their dictionary across the projection;
	// computed expressions lose it.
	oldD := p.dres
	if oldD != nil {
		remap := make(map[int]int, len(op.node.Exprs))
		for j, e := range op.node.Exprs {
			if cr, ok := e.(*expr.ColRef); ok {
				remap[j] = cr.Idx
			}
		}
		p.dres = &dictResolver{
			dict: func(j int) *storage.Dict {
				if src, ok := remap[j]; ok {
					return oldD.dict(src)
				}
				return nil
			},
			code: func(j int) expr.Val { return oldD.code(remap[j]) },
		}
	}
	down(func(j int) expr.Val { return vals[j] })
	p.dres = oldD
}

// probeOp is a hash-join probe: it walks the bucket chain of the build-side
// table entirely in generated code (Fig. 4's workerC shape).
type probeOp struct {
	join *plan.Join
	desc *joinMeta
}

func (op *probeOp) apply(p *pgen, res resolver, down func(resolver)) {
	b := p.b
	f := p.f
	j := op.join
	np := len(j.Probe.Schema())

	// Downstream schema is [probe ++ build]: probe-side columns keep their
	// dictionaries, build-side columns come from materialized tuples (raw
	// bytes, no code vector in scope).
	oldD := p.dres
	if oldD != nil {
		p.dres = &dictResolver{
			dict: func(idx int) *storage.Dict {
				if idx < np {
					return oldD.dict(idx)
				}
				return nil
			},
			code: func(idx int) expr.Val { return oldD.code(idx) },
		}
		defer func() { p.dres = oldD }()
	}

	keyTypes := make([]expr.Type, len(j.ProbeKeys))
	keyVals := make([]expr.Val, len(j.ProbeKeys))
	for i, k := range j.ProbeKeys {
		keyTypes[i] = k.Type()
		keyVals[i] = p.gen(k, res)
	}
	h := p.hashKeys(keyVals, keyTypes)

	stOff := int64(op.desc.desc.StateOff)
	mask := b.Load(ir.I64, b.GEP(p.state, nil, 0, stOff+8))
	slot := b.And(h, mask)

	walk := f.NewBlock()
	advance := f.NewBlock()
	exitW := f.NewBlock()
	outer := op.outerCount()

	// Bloom pre-check: test the 16-bit tag word for hash bits 48..51
	// before touching the bucket array. A filtered-out probe skips the
	// bucket load and the chain walk entirely — the filter is 8x denser
	// than the bucket array, so the tag load stays cache-hot while the
	// dependent random bucket access it replaces does not. A filtered-out
	// probe enters the walk with a null head and exits on its first test.
	fBase := b.Load(ir.I64, b.GEP(p.state, nil, 0, stOff+16))
	fw := b.ZExt(b.Load(ir.I16, b.GEP(fBase, slot, 2, 0)), ir.I64)
	tag := b.Shl(b.ConstI64(1), b.And(b.LShr(h, b.ConstI64(48)), b.ConstI64(15)))
	pass := b.ICmp(ir.Ne, b.And(fw, tag), b.ConstI64(0))
	hitB := f.NewBlock()
	missB := f.NewBlock()
	b.CondBr(pass, hitB, missB)
	b.SetBlock(hitB)
	buckets := b.Load(ir.I64, b.GEP(p.state, nil, 0, stOff))
	head := b.Load(ir.I64, b.GEP(buckets, slot, 8, 0))
	b.Br(walk)
	b.SetBlock(missB)
	null := b.ConstI64(0)
	b.Br(walk)

	// Entry edges into the walk block: (head value, predecessor) pairs.
	entryIn := []struct {
		v   *ir.Value
		blk *ir.Block
	}{{head, hitB}, {null, missB}}

	b.SetBlock(walk)
	e := b.Phi(ir.I64)
	for _, in := range entryIn {
		ir.AddIncoming(e, in.v, in.blk)
	}
	var cnt *ir.Value
	if outer {
		cnt = b.Phi(ir.I64)
		for _, in := range entryIn {
			ir.AddIncoming(cnt, b.ConstI64(0), in.blk)
		}
	}
	// advIn collects (value, block) pairs flowing into the advance block's
	// count φ.
	type adv struct {
		v   *ir.Value
		blk *ir.Block
	}
	var advIn []adv
	gotoAdvance := func(c *ir.Value, then *ir.Block) {
		// condbr c ? then : advance from the current block.
		if outer {
			advIn = append(advIn, adv{cnt, b.B})
		}
		b.CondBr(c, then, advance)
		b.SetBlock(then)
	}

	checkB := f.NewBlock()
	b.CondBr(b.ICmp(ir.Eq, e, b.ConstI64(0)), exitW, checkB)
	b.SetBlock(checkB)

	// Hash, then key comparisons.
	eh := b.Load(ir.I64, b.GEP(e, nil, 0, 0))
	gotoAdvance(b.ICmp(ir.Eq, eh, h), f.NewBlock())
	for i := range j.ProbeKeys {
		bk := b.Load(ir.I64, b.GEP(e, nil, 0, int64(16+8*i)))
		gotoAdvance(b.ICmp(ir.Eq, bk, keyVals[i].X), f.NewBlock())
	}

	// Residual over [probe ++ build].
	if j.Residual != nil {
		combined := cached(func(idx int) expr.Val {
			if idx < np {
				return res(idx)
			}
			fld, ok := op.desc.byIdx[idx-np]
			if !ok {
				panic("codegen: residual references unsaved build column")
			}
			return p.loadAt(e, fld.off, fld.t)
		})
		force(combined, j.Residual)
		c := p.genBool(j.Residual, combined)
		gotoAdvance(c, f.NewBlock())
	}

	// Match.
	switch j.Kind {
	case plan.Inner:
		// Pre-load the payload eagerly at the match point.
		payload := make([]expr.Val, len(j.PayloadIdx))
		for i, src := range j.PayloadIdx {
			fld := op.desc.byIdx[src]
			payload[i] = p.loadAt(e, fld.off, fld.t)
		}
		outRes := cached(func(idx int) expr.Val {
			if idx < np {
				return res(idx)
			}
			return payload[idx-np]
		})
		savedCont := p.cont
		p.cont = advance
		down(outRes)
		p.cont = savedCont
		b.Br(advance)
		b.SetBlock(exitW)
		// exitW is the open fall-through: tuple done.
	case plan.Semi:
		// First match wins: process downstream once and abandon the walk.
		down(res)
		open := b.B // downstream end: the tuple-done fall-through
		b.SetBlock(exitW)
		b.Br(p.cont) // exhausted without a match: reject the tuple
		b.SetBlock(open)
	case plan.Anti:
		// A match rejects the tuple.
		b.Br(p.cont)
		b.SetBlock(exitW)
		down(res)
	case plan.RightSemi, plan.RightAnti, plan.RightCount:
		// Count the match on the build tuple, in this worker's own array,
		// and walk on: every candidate is a possible match of its own.
		mk := op.desc.desc.Marks
		counts := b.Load(ir.I64, b.GEP(p.local, nil, 0, int64(mk.LocalOff)))
		ord := b.Load(ir.I64, b.GEP(e, nil, 0, int64(mk.Off)))
		slotAddr := b.GEP(counts, ord, 8, 0)
		b.Store(slotAddr, b.Add(b.Load(ir.I64, slotAddr), b.ConstI64(1)))
		b.Br(advance)
		b.SetBlock(exitW)
		down(res)
	case plan.OuterCount:
		cnt2 := b.Add(cnt, b.ConstI64(1))
		advIn = append(advIn, adv{cnt2, b.B})
		b.Br(advance)
		b.SetBlock(exitW)
		outRes := cached(func(idx int) expr.Val {
			if idx < np {
				return res(idx)
			}
			return expr.Val{X: cnt}
		})
		down(outRes)
	}

	// advance: next chain entry.
	cur := b.B
	b.SetBlock(advance)
	if outer {
		cntAdv := b.Phi(ir.I64)
		for _, a := range advIn {
			ir.AddIncoming(cntAdv, a.v, a.blk)
		}
		ir.AddIncoming(cnt, cntAdv, advance)
	}
	enext := b.Load(ir.I64, b.GEP(e, nil, 0, 8))
	b.Br(walk)
	ir.AddIncoming(e, enext, advance)
	b.SetBlock(cur)
}

func (op *probeOp) outerCount() bool { return op.join.Kind == plan.OuterCount }
