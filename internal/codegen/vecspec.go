package codegen

import (
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// VecSpec describes one pipeline in engine-neutral terms so the vectorized
// backend can compile batch kernels against exactly the state the compiled
// tiers use: the same join hash tables, aggregation tables, output buffers,
// stored-tuple layouts and literal addresses. Codegen builds it alongside
// the IR worker function; both views of the pipeline must agree bit for bit
// (hash values, stored addresses, trap conditions), because a query may
// switch engines between morsels and the breakers merge whatever both wrote.
type VecSpec struct {
	// Source: exactly one of Scan / AggSrc / JoinSrc is set, mirroring
	// Pipeline.Table / Pipeline.AggSource / Pipeline.JoinSource.
	Scan    *VecScan
	AggSrc  *VecAggSrc
	JoinSrc *VecJoinSrc

	Ops []VecOp

	// Sink: exactly one of Build / Agg / Out / Mark is set.
	Build *VecBuild
	Agg   *VecAgg
	Out   *VecOut
	Mark  *VecMark

	// HashDense marks pipelines dominated by hash-table traffic (a probe
	// operator or a grouped aggregation sink): the workloads where batching
	// overlaps cache misses and the vectorized engine wins. Compute-dense
	// pipelines (pure scan→filter→arith→sink) amortize better in compiled
	// code; the cost model picks the speedup estimate by this flag.
	HashDense bool

	// StrLits maps every string literal reachable from the spec's
	// expressions to the {addr, len} codegen interned for it, so the
	// vectorized engine evaluates string constants to the exact (addr, len)
	// the compiled tiers embed — stored string references must compare
	// bit-identical across engines.
	StrLits map[string][2]uint64

	// ParamBase is the base address of the query's parameter segment
	// (Query.ParamBase). Kernels evaluate expr.Param by loading the slot
	// through the run's segment table, so a fingerprint-cached kernel
	// reads the current execution's bindings exactly like cached code.
	ParamBase uint64
}

// VecScan is a table-scan source: per-column storage kind and the base
// addresses codegen registered (the same segments the compiled tiers read,
// so string values resolve to identical (addr, len) pairs).
type VecScan struct {
	Table *storage.Table
	Cols  []VecCol
}

// VecCol is one scanned column.
type VecCol struct {
	Col  *storage.Column
	Kind storage.Kind
	Base uint64 // column data segment base
	Heap uint64 // string heap base (String columns only)
}

// VecAggSrc is an aggregation-source pipeline: a scan over the dense group
// index published at IndexStateOff, decoding keys and finalized aggregates
// with the same formulas as the compiled group resolver.
type VecAggSrc struct {
	AggID         int
	IndexStateOff int
	GB            *plan.GroupBy
	KeyOffs       []int
	SlotOffs      [][]int
}

// VecJoinSrc is the source of a build-side join's last pipeline: a scan
// over the dense index of emitted build tuples published at IndexStateOff.
// Fields are the stored build columns in schema order; CountOff is the
// offset of RightCount's match count, -1 for the other kinds.
type VecJoinSrc struct {
	IndexStateOff int
	Fields        []VecField
	CountOff      int
}

// VecMark is the sink of a build-side join's probe pipeline: the probe of
// Probe, walking every candidate, then one count increment per match in
// the worker's array (the mark layout of the join's JoinDesc).
type VecMark struct {
	Probe  *VecProbe
	Layout rt.MarkLayout
}

// VecOp is a streaming operator: exactly one field is set.
type VecOp struct {
	Filter  *VecFilter
	Project *VecProject
	Probe   *VecProbe
}

// VecFilter narrows the selection vector by a predicate.
type VecFilter struct{ Cond expr.Expr }

// VecProject replaces the schema with computed expressions.
type VecProject struct{ Exprs []expr.Expr }

// VecProbe is a hash-join probe against the table at StateOff.
type VecProbe struct {
	Join     *plan.Join
	JoinID   int
	StateOff int // join state slot: buckets, mask, Bloom filter
	NP       int // probe-side schema width
	Fields   []VecField
}

// VecField is one stored build-side column of a join tuple.
type VecField struct {
	SrcIdx int
	Off    int
	T      expr.Type
}

// VecBuild materializes build tuples ([hash][next][keys][fields]).
type VecBuild struct {
	JoinID    int
	TupleSize int
	Keys      []expr.Expr
	Fields    []VecField
}

// VecAgg is the group-by update sink. KeyCodeBase replays codegen's
// dictionary-code hash rewrite: a non-zero entry is the base address of the
// key column's 4-byte code vector, and the kernel must hash the code as an
// integer (not the string bytes) or the per-worker tables shared with the
// compiled tiers would split groups.
type VecAgg struct {
	AggID       int
	GB          *plan.GroupBy
	LocalOff    int
	Scalar      bool
	Keys        []rt.KeyField
	Aggs        []rt.AggField
	SlotOffs    [][]int
	KeyCodeBase []uint64
}

// VecOut materializes result rows.
type VecOut struct {
	OutID   int
	RowSize int
	Cols    []OutCol
}

// scanVecSource is the vectorized view of a table-scan source.
func (g *cgen) scanVecSource(scan *plan.Scan) *VecSpec {
	vs := &VecScan{Table: scan.Table}
	for _, name := range scan.Cols {
		c := scan.Table.MustCol(name)
		vc := VecCol{Col: c, Kind: c.Kind, Base: g.tableBase(c)}
		if c.Kind == storage.String {
			vc.Heap = g.heapBase[c]
		}
		vs.Cols = append(vs.Cols, vc)
	}
	return &VecSpec{Scan: vs}
}

// buildVecSpec derives the vectorized view of the pipeline just emitted
// from sp, which holds its source. It runs unconditionally on every codegen
// pass so segment and literal registration stays deterministic whether or
// not the engine ever installs a vectorized kernel.
func (g *cgen) buildVecSpec(sp *VecSpec, ops []pipeOp, sk sink) *VecSpec {
	sp.ParamBase = g.paramBase

	// dicts tracks, per column of the current schema, the dictionary codegen
	// would see through its dictResolver chain — the aggSink hash rewrite is
	// the one dictionary decision that changes shared state, so it must be
	// replayed from identical inputs. nil for a hash-table source.
	var dicts []*storage.Dict
	if sp.Scan != nil {
		dicts = make([]*storage.Dict, len(sp.Scan.Cols))
		for j, c := range sp.Scan.Cols {
			dicts[j] = c.Col.Dict()
		}
	}

	for _, op := range ops {
		switch x := op.(type) {
		case *filterOp:
			sp.Ops = append(sp.Ops, VecOp{Filter: &VecFilter{Cond: x.cond}})
		case *projectOp:
			sp.Ops = append(sp.Ops, VecOp{Project: &VecProject{Exprs: x.node.Exprs}})
			if dicts != nil {
				nd := make([]*storage.Dict, len(x.node.Exprs))
				for j, e := range x.node.Exprs {
					if cr, ok := e.(*expr.ColRef); ok {
						nd[j] = dicts[cr.Idx]
					}
				}
				dicts = nd
			}
		case *probeOp:
			sp.Ops = append(sp.Ops, VecOp{Probe: vecProbe(x.join, x.desc)})
			sp.HashDense = true
			if dicts != nil {
				// Probe-side columns keep their dictionaries; build-side
				// payload (and the outer count) come from raw tuple bytes.
				nd := make([]*storage.Dict, len(x.join.Schema()))
				copy(nd, dicts)
				dicts = nd
			}
		}
	}

	switch s := sk.(type) {
	case *buildSink:
		vb := &VecBuild{
			JoinID: s.desc.id, TupleSize: s.desc.desc.TupleSize,
			Keys: s.join.BuildKeys,
		}
		for _, f := range s.desc.fields {
			vb.Fields = append(vb.Fields, VecField{SrcIdx: f.srcIdx, Off: f.off, T: f.t})
		}
		sp.Build = vb
	case *aggSink:
		desc := &g.q.Aggs[s.id.id]
		va := &VecAgg{
			AggID: s.id.id, GB: s.node, LocalOff: desc.LocalOff,
			Scalar: desc.Scalar, Keys: desc.Keys, Aggs: desc.Aggs,
			SlotOffs: s.id.slotOffs,
		}
		if !desc.Scalar {
			sp.HashDense = true
			va.KeyCodeBase = make([]uint64, len(s.node.Keys))
			for i, k := range s.node.Keys {
				cr, isCol := k.(*expr.ColRef)
				if !isCol || k.Type().Kind != expr.KString || dicts == nil {
					continue
				}
				// Same condition as the aggSink hash substitution; dictBase
				// is memoized, so this re-registers nothing.
				if d := dicts[cr.Idx]; d != nil {
					va.KeyCodeBase[i] = g.dictBase(d)
				}
			}
		}
		sp.Agg = va
	case *outSink:
		d := &g.q.Outs[s.id]
		sp.Out = &VecOut{OutID: s.id, RowSize: d.RowSize, Cols: d.Cols}
	case *markSink:
		sp.Mark = &VecMark{Probe: vecProbe(s.join, s.desc), Layout: *s.desc.desc.Marks}
		sp.HashDense = true
	}

	g.internSpecLits(sp)
	return sp
}

// vecProbe is the vectorized view of a probe against join jm.
func vecProbe(j *plan.Join, jm *joinMeta) *VecProbe {
	vp := &VecProbe{Join: j, JoinID: jm.id, StateOff: jm.desc.StateOff,
		NP: len(j.Probe.Schema())}
	for _, f := range jm.fields {
		vp.Fields = append(vp.Fields, VecField{SrcIdx: f.srcIdx, Off: f.off, T: f.t})
	}
	return vp
}

// internSpecLits interns every string literal reachable from the spec's
// expressions so the vectorized engine evaluates string constants to the
// same (addr, len) the compiled tiers embed. Interning is memoized, so
// literals the compiled code already registered resolve identically; a
// literal only the spec interns (e.g. one the compiled path folded to a
// dictionary code) extends the shared segment deterministically.
func (g *cgen) internSpecLits(sp *VecSpec) {
	sp.StrLits = map[string][2]uint64{}
	intern := func(e expr.Expr) {
		walkExpr(e, func(x expr.Expr) {
			if c, ok := x.(*expr.Const); ok && c.T.Kind == expr.KString {
				addr, n := g.internLit(c.S)
				sp.StrLits[c.S] = [2]uint64{uint64(addr), uint64(n)}
			}
		})
	}
	internProbe := func(p *VecProbe) {
		for _, e := range p.Join.ProbeKeys {
			intern(e)
		}
		intern(p.Join.Residual)
	}
	for _, op := range sp.Ops {
		switch {
		case op.Filter != nil:
			intern(op.Filter.Cond)
		case op.Project != nil:
			for _, e := range op.Project.Exprs {
				intern(e)
			}
		case op.Probe != nil:
			internProbe(op.Probe)
		}
	}
	switch {
	case sp.Build != nil:
		for _, e := range sp.Build.Keys {
			intern(e)
		}
	case sp.Agg != nil:
		for _, e := range sp.Agg.GB.Keys {
			intern(e)
		}
		for _, a := range sp.Agg.GB.Aggs {
			intern(a.Arg)
		}
	case sp.Mark != nil:
		internProbe(sp.Mark.Probe)
	}
}

// walkExpr invokes fn on e and every subexpression (including InList
// constants), in no particular order. nil expressions are skipped.
func walkExpr(e expr.Expr, fn func(expr.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *expr.Arith:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *expr.Cmp:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *expr.Logic:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *expr.NotExpr:
		walkExpr(x.Arg, fn)
	case *expr.LikeExpr:
		walkExpr(x.Arg, fn)
	case *expr.InList:
		walkExpr(x.Arg, fn)
		for _, c := range x.List {
			walkExpr(c, fn)
		}
	case *expr.CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(x.Else, fn)
	case *expr.YearExpr:
		walkExpr(x.Arg, fn)
	case *expr.SubstrExpr:
		walkExpr(x.Arg, fn)
	case *expr.CastExpr:
		walkExpr(x.Arg, fn)
	}
}
