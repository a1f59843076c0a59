package codegen

import (
	"aqe/internal/expr"
	"aqe/internal/ir"
	"aqe/internal/plan"
)

// buildSink materializes build-side tuples of a hash join into the join's
// arenas (layout: [hash][next][keys...][fields...]), each bumped from the
// worker's window (bumpAlloc; ht_alloc when a chunk is full).
type buildSink struct {
	join *plan.Join
	desc *joinMeta
}

func (s *buildSink) annotate(pl *Pipeline) {
	pl.SinkJoin = s.desc.id
	pl.BuildOf = s.join
}

func (s *buildSink) emit(p *pgen, res resolver) {
	b := p.b
	j := s.join
	// Pre-resolve referenced columns in the spine (see filterOp.apply).
	force(res, j.BuildKeys...)
	keyTypes := make([]expr.Type, len(j.BuildKeys))
	keyVals := make([]expr.Val, len(j.BuildKeys))
	for i, k := range j.BuildKeys {
		keyTypes[i] = k.Type()
		keyVals[i] = p.gen(k, res)
	}
	h := p.hashKeys(keyVals, keyTypes)
	t := p.bumpAlloc(s.desc.desc.WinOff, s.desc.desc.TupleSize, "ht_alloc", s.desc.id)
	b.Store(b.GEP(t, nil, 0, 0), h)
	for i, kv := range keyVals {
		b.Store(b.GEP(t, nil, 0, int64(16+8*i)), kv.X)
	}
	for _, fld := range s.desc.fields {
		v := res(fld.srcIdx)
		p.storeAt(t, fld.off, v, fld.t)
	}
}

// markSink ends the probe pipeline of a build-side join: the probe walks
// every chain to its end, evaluates the residual for every candidate and
// counts each match against the build tuple (probeOp's mark case). Nothing
// flows downstream; the join's rows come out of the pipeline that scans the
// table afterwards.
type markSink struct {
	join *plan.Join
	desc *joinMeta
}

func (s *markSink) annotate(pl *Pipeline) { pl.SinkMark = s.desc.id }

func (s *markSink) emit(p *pgen, res resolver) {
	(&probeOp{join: s.join, desc: s.desc}).apply(p, res, func(resolver) {})
}

// aggSink is the group-by update path: find-or-insert in the worker-local
// aggregation hash table, then update the aggregate slots — all in
// generated code except the insert-and-grow slow path (§IV-E: runtime
// calls are fine from both tiers).
type aggSink struct {
	node *plan.GroupBy
	id   *aggMeta
}

func (s *aggSink) annotate(pl *Pipeline) { pl.SinkAgg = s.id.id }

func (s *aggSink) emit(p *pgen, res resolver) {
	b := p.b
	f := p.f
	gb := s.node
	desc := &p.g.q.Aggs[s.id.id]
	localOff := int64(desc.LocalOff)

	// Pre-resolve every column the keys and aggregate arguments touch in
	// the spine: the update path sits behind the hash-table walk's
	// conditional blocks, and an aggregate argument containing CASE would
	// otherwise cache column loads inside one arm (dominance hazard).
	force(res, gb.Keys...)
	for _, a := range gb.Aggs {
		force(res, a.Arg)
	}

	var entry *ir.Value
	if desc.Scalar {
		entry = b.Load(ir.I64, b.GEP(p.local, nil, 0, localOff+16))
	} else {
		keyTypes := make([]expr.Type, len(gb.Keys))
		keyVals := make([]expr.Val, len(gb.Keys))
		for i, k := range gb.Keys {
			keyTypes[i] = k.Type()
			keyVals[i] = p.gen(k, res)
		}
		// Hash string keys that directly reference a dictionary-encoded
		// column through their 4-byte code (the integer mixer) instead of
		// str_hash over the bytes. Equal strings have equal codes within a
		// column, so the hash stays consistent with the stored-key str_eq
		// comparison below; the stored key remains the raw (addr, len).
		hashVals := make([]expr.Val, len(gb.Keys))
		hashTypes := make([]expr.Type, len(gb.Keys))
		for i, k := range gb.Keys {
			hashVals[i], hashTypes[i] = keyVals[i], keyTypes[i]
			cr, isCol := k.(*expr.ColRef)
			if !isCol || keyTypes[i].Kind != expr.KString || p.dres == nil {
				continue
			}
			if p.dres.dict(cr.Idx) != nil {
				hashVals[i] = p.dres.code(cr.Idx)
				hashTypes[i] = expr.TInt
				p.g.noteDictRewrite(true)
			}
		}
		h := p.hashKeys(hashVals, hashTypes)
		buckets := b.Load(ir.I64, b.GEP(p.local, nil, 0, localOff))
		mask := b.Load(ir.I64, b.GEP(p.local, nil, 0, localOff+8))
		head := b.Load(ir.I64, b.GEP(buckets, b.And(h, mask), 8, 0))

		walk := f.NewBlock()
		advance := f.NewBlock()
		missB := f.NewBlock()
		updateB := f.NewBlock()
		var phiIn []struct {
			v   *ir.Value
			blk *ir.Block
		}

		pre := b.B
		b.Br(walk)
		b.SetBlock(walk)
		e := b.Phi(ir.I64)
		ir.AddIncoming(e, head, pre)
		checkB := f.NewBlock()
		b.CondBr(b.ICmp(ir.Eq, e, b.ConstI64(0)), missB, checkB)

		b.SetBlock(checkB)
		eh := b.Load(ir.I64, b.GEP(e, nil, 0, 8))
		next := f.NewBlock()
		b.CondBr(b.ICmp(ir.Eq, eh, h), next, advance)
		b.SetBlock(next)
		for i, kv := range keyVals {
			kf := desc.Keys[i]
			var eq *ir.Value
			if kf.Str {
				sAddr := b.Load(ir.I64, b.GEP(e, nil, 0, int64(kf.Off)))
				sLen := b.Load(ir.I64, b.GEP(e, nil, 0, int64(kf.Off+8)))
				r := b.Call("str_eq", ir.I64, kv.X, kv.Len, sAddr, sLen)
				eq = b.ICmp(ir.Ne, r, b.ConstI64(0))
			} else {
				sv := b.Load(ir.I64, b.GEP(e, nil, 0, int64(kf.Off)))
				eq = b.ICmp(ir.Eq, sv, kv.X)
			}
			next = f.NewBlock()
			b.CondBr(eq, next, advance)
			b.SetBlock(next)
		}
		// Found.
		phiIn = append(phiIn, struct {
			v   *ir.Value
			blk *ir.Block
		}{e, b.B})
		b.Br(updateB)

		b.SetBlock(advance)
		enext := b.Load(ir.I64, b.GEP(e, nil, 0, 0))
		b.Br(walk)
		ir.AddIncoming(e, enext, advance)

		// Miss: insert a fresh entry, store keys, initialize slots.
		b.SetBlock(missB)
		eNew := b.Call("agg_insert", ir.I64, b.ConstI64(int64(s.id.id)), h)
		for i, kv := range keyVals {
			kf := desc.Keys[i]
			if kf.Str {
				b.Store(b.GEP(eNew, nil, 0, int64(kf.Off)), kv.X)
				b.Store(b.GEP(eNew, nil, 0, int64(kf.Off+8)), kv.Len)
			} else {
				b.Store(b.GEP(eNew, nil, 0, int64(kf.Off)), kv.X)
			}
		}
		for _, af := range desc.Aggs {
			init := b.ConstI64(int64(af.Kind.Init()))
			b.Store(b.GEP(eNew, nil, 0, int64(af.Off)), init)
		}
		phiIn = append(phiIn, struct {
			v   *ir.Value
			blk *ir.Block
		}{eNew, b.B})
		b.Br(updateB)

		b.SetBlock(updateB)
		ephi := b.Phi(ir.I64)
		for _, in := range phiIn {
			ir.AddIncoming(ephi, in.v, in.blk)
		}
		entry = ephi
	}

	// Update the aggregate slots.
	slotIdx := 0
	for ai, a := range gb.Aggs {
		slots := s.id.slotOffs[ai]
		switch a.Func {
		case plan.Count, plan.CountStar:
			s.bump(p, entry, slots[0])
			slotIdx++
		case plan.Avg:
			s.accumulate(p, res, entry, slots[0], a.Arg)
			s.bump(p, entry, slots[1])
			slotIdx += 2
		case plan.Sum:
			s.accumulate(p, res, entry, slots[0], a.Arg)
			slotIdx++
		case plan.Min, plan.Max:
			b2 := p.b
			v := p.gen(a.Arg, res).X
			addr := b2.GEP(entry, nil, 0, int64(slots[0]))
			isFloat := a.Arg.Type().Kind == expr.KFloat
			var cur *ir.Value
			if isFloat {
				cur = b2.Load(ir.F64, addr)
			} else {
				cur = b2.Load(ir.I64, addr)
			}
			pred := ir.SLt
			if a.Func == plan.Max {
				pred = ir.SGt
			}
			var c *ir.Value
			if isFloat {
				c = b2.FCmp(pred, v, cur)
			} else {
				c = b2.ICmp(pred, v, cur)
			}
			nv := b2.Select(c, v, cur)
			b2.Store(addr, nv)
			slotIdx++
		}
	}
	_ = slotIdx
}

// bump increments a counter slot (unchecked: a count cannot overflow i64
// on any real workload, and HyPer does not overflow-check counters).
func (s *aggSink) bump(p *pgen, entry *ir.Value, off int) {
	b := p.b
	addr := b.GEP(entry, nil, 0, int64(off))
	cur := b.Load(ir.I64, addr)
	b.Store(addr, b.Add(cur, b.ConstI64(1)))
}

// accumulate adds the argument into a sum slot: overflow-checked for
// integer/decimal sums (the paper's §IV-F fusion target), a plain fadd for
// float sums.
func (s *aggSink) accumulate(p *pgen, res resolver, entry *ir.Value, off int, arg expr.Expr) {
	b := p.b
	v := p.gen(arg, res).X
	addr := b.GEP(entry, nil, 0, int64(off))
	if arg.Type().Kind == expr.KFloat {
		cur := b.Load(ir.F64, addr)
		b.Store(addr, b.FAdd(cur, v))
		return
	}
	cur := b.Load(ir.I64, addr)
	nv := p.cg.Checked(ir.OpSAddOvf, cur, v)
	b.Store(b.GEP(entry, nil, 0, int64(off)), nv)
}

// outSink materializes result rows, each bumped from the worker's window
// (bumpAlloc; out_alloc when a chunk is full).
type outSink struct {
	id     int
	schema []plan.ColDef
}

func (s *outSink) annotate(pl *Pipeline) { pl.SinkOut = s.id }

func (s *outSink) emit(p *pgen, res resolver) {
	d := &p.g.q.Outs[s.id]
	row := p.bumpAlloc(d.WinOff, d.RowSize, "out_alloc", s.id)
	for j, col := range d.Cols {
		v := res(j)
		p.storeAt(row, col.Off, v, col.T)
	}
}

// bumpAlloc emits the allocation of a size-byte record from the bump
// window [next][end] at winOff in the worker's local block (rt.Arena): if
// next+size ≤ end, store next+size back and use next; otherwise call the
// runtime's refill extern slow(id), which starts a new chunk, resets the
// window and returns the chunk's first record. The refill runs once per
// arena chunk, not once per record, and every tier runs the same code.
func (p *pgen) bumpAlloc(winOff, size int, slow string, id int) *ir.Value {
	b, f := p.b, p.f
	nextAddr := b.GEP(p.local, nil, 0, int64(winOff))
	next := b.Load(ir.I64, nextAddr)
	end := b.Load(ir.I64, b.GEP(p.local, nil, 0, int64(winOff+8)))
	bumped := b.Add(next, b.ConstI64(int64(size)))
	fast, refill, done := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b.CondBr(b.ICmp(ir.ULe, bumped, end), fast, refill)
	b.SetBlock(fast)
	b.Store(nextAddr, bumped)
	b.Br(done)
	b.SetBlock(refill)
	fresh := b.Call(slow, ir.I64, b.ConstI64(int64(id)))
	b.Br(done)
	b.SetBlock(done)
	rec := b.Phi(ir.I64)
	ir.AddIncoming(rec, next, fast)
	ir.AddIncoming(rec, fresh, refill)
	return rec
}

// queryStart builds the paper's queryStart function (Fig. 4) in a module
// of its own: one pipeline_run call per pipeline, in dependency order. The
// engine runs that list from Go (exec's queryRun.execute) and never builds
// this; it is kept for Query.QueryStart only.
func queryStart(name string, pipelines []*Pipeline) *ir.Function {
	f := ir.NewModule(name).NewFunc("queryStart", ir.I64, ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	for _, pl := range pipelines {
		b.Call("pipeline_run", ir.Void, b.ConstI64(int64(pl.ID)))
	}
	b.RetVoid()
	return f
}
