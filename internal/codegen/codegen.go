// Package codegen translates physical plans into IR, reproducing the code
// structure of the paper's Fig. 4: the plan is decomposed into pipelines,
// and each pipeline becomes one worker function worker(state, local, begin,
// end) processing a morsel of its source. The module holds the worker
// functions only; they are what adaptive execution compiles. The paper's
// queryStart, which launches the pipelines in dependency order, is the
// order of Query.Pipelines: the engine runs that list from Go, which keeps
// the paper's "it never pays off to compile it" by never generating it.
package codegen

import (
	"encoding/binary"
	"fmt"
	"math"

	"aqe/internal/expr"
	"aqe/internal/ir"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// Query is a fully code-generated query, ready for the execution engine.
type Query struct {
	// Module holds one worker function per pipeline.
	Module *ir.Module
	// QueryStart is the paper's queryStart as IR, in a module of its own:
	// no engine path translates or runs it.
	//
	// Deprecated: the pipelines run in Pipelines order. The next change to
	// the benchmark module deletes QueryStart, together with CompileOpts.
	QueryStart *ir.Function
	// Pipelines are in dependency order: a pipeline reads only the
	// breakers of pipelines before it.
	Pipelines []*Pipeline

	StateBytes int
	LocalBytes int

	Joins    []JoinDesc
	Aggs     []AggDesc
	Outs     []OutDesc
	Patterns []string

	// Literals is the string-literal segment's contents, exactly the bytes
	// interned; codegen registered the segment before emitting any code,
	// embedded its addresses as constants, and published these bytes at
	// the end.
	Literals []byte

	// Params describes the prepared-statement parameters referenced by
	// the plan, indexed by parameter number ($1 is index 0). ParamBase is
	// the segment generated code loads them from: one 16-byte slot per
	// parameter (scalar at +0; strings: address at +0, length at +8,
	// bytes appended after the slot array), installed per execution by
	// BindParams. Parameter values live only in the segment — never in
	// the IR — so executions that differ only in bindings share a module,
	// a fingerprint and compiled tiers.
	Params    []expr.Type
	ParamBase uint64

	// mem is the address space the segments above are mapped in.
	mem *rt.Memory

	// Output describes the result records the final pipeline writes (read
	// by exec.RowSet); SortKeys/Limit are applied to them by the engine.
	Output   OutDesc
	SortKeys []plan.SortKey
	Limit    int
	Schema   []plan.ColDef

	// DictRewrites counts string predicates and group-key hashes rewritten
	// to dictionary codes across all pipelines; DictHits counts the subset
	// whose literals occurred in the dictionary (misses fold to constants).
	DictRewrites int
	DictHits     int
}

// Pipeline is the metadata of one worker function.
type Pipeline struct {
	ID    int
	Fn    *ir.Function
	Label string

	// Source: exactly one of Table / AggSource / JoinSource is set. The
	// engine derives the morsel count from it at pipeline start.
	Table      *storage.Table
	AggSource  int // agg id, -1 if not an aggregation source
	JoinSource int // build-side join id whose emitted tuples are the source, else -1

	// Sink finalization: ids are -1 when not applicable. SinkMark is the
	// build-side join whose matches the pipeline counts; the engine emits
	// its tuples once the pipeline drains.
	SinkJoin int
	SinkAgg  int
	SinkOut  int
	SinkMark int

	// BuildOf is the join whose hash table this pipeline builds (set iff
	// SinkJoin >= 0). The engine reads its cardinality estimate at
	// finalize to decide whether the plan deserves reoptimization.
	BuildOf *plan.Join

	// Prune holds the sargable conjuncts of a scan pipeline's filter for
	// zone-map block skipping (empty when the source has no usable
	// conjuncts). The generated kernel retains the full predicate; the
	// engine may use these to skip morsels whose blocks provably match
	// nothing.
	Prune []PruneCond

	// DictRewrites counts the string predicates and group-key hashes of
	// this pipeline rewritten to dictionary-code operations.
	DictRewrites int

	// Vec is always nil.
	//
	// Deprecated: the vectorized engine it described was removed.
	Vec *VecSpec
}

// VecSpec is empty and never built.
//
// Deprecated: the vectorized engine it described was removed.
type VecSpec struct{}

// JoinDesc mirrors the layout the generated code assumed for a join hash
// table; the engine materializes a matching rt.JoinHT.
type JoinDesc struct {
	TupleSize int
	StateOff  int
	// WinOff is the offset in each worker-local block of the bump window
	// the build sink allocates tuples from (rt.WindowBytes).
	WinOff  int
	NumKeys int
	// Marks is set for a build-side join (plan.JoinKind.BuildSide): its
	// tuples store every build column and end in the 8-byte mark.
	Marks *rt.MarkLayout
}

// AggDesc mirrors the aggregation layout.
type AggDesc struct {
	EntrySize     int
	Keys          []rt.KeyField
	Aggs          []rt.AggField
	LocalOff      int
	IndexStateOff int
	Scalar        bool
}

// OutDesc describes an output row buffer.
type OutDesc struct {
	RowSize int
	// WinOff is the offset in each worker-local block of the bump window
	// the output sink allocates rows from (rt.WindowBytes).
	WinOff int
	Cols   []OutCol
}

// OutCol is one column of an output row.
type OutCol struct {
	Name string
	T    expr.Type
	Off  int
}

// Parameter segment layout: one 16-byte slot per parameter (at most
// maxParams) followed by the string heap bound parameter strings copy into.
const (
	maxParams = 64
	paramSlot = 16
)

// Options is kept only so the benchmark module, which still passes
// Options{JoinFilter: true} to CompileOpts, keeps compiling. Its field
// selects nothing: the Bloom-filter check and the dictionary rewrites are
// always emitted.
//
// Deprecated: use Compile. The next change to the benchmark module deletes
// Options and CompileOpts.
type Options struct{ JoinFilter bool }

// CompileOpts is Compile; opts is ignored.
//
// Deprecated: use Compile (see Options).
func CompileOpts(root plan.Node, mem *rt.Memory, name string, _ Options) (*Query, error) {
	return Compile(root, mem, name)
}

// Compile translates a plan into IR against the given address space (the
// table columns referenced by the plan are registered as segments and
// their base addresses embedded as constants, as HyPer embeds pointers).
// Every join probe checks its Bloom filter, and string predicates,
// group keys and zone-map conditions over dictionary-encoded columns are
// rewritten to dictionary codes.
func Compile(root plan.Node, mem *rt.Memory, name string) (*Query, error) {
	g := &cgen{
		mem:        mem,
		mod:        ir.NewModule(name),
		colBase:    make(map[*storage.Column]uint64),
		heapBase:   make(map[*storage.Column]uint64),
		codeBase:   make(map[*storage.Dict]uint64),
		litIdx:     make(map[string]int64),
		patternIdx: make(map[string]int),
	}
	g.q = &Query{Module: g.mod, Limit: -1, mem: mem}
	// The literal and parameter segments register first and unconditionally
	// (even for plans without literals or parameters) so segment numbering
	// — and therefore every embedded base address — is identical across
	// all plans, which cached programs and code rely on. Each is
	// published at its exact size once its contents are known: literals at
	// the end of codegen, parameter slots here and again by BindParams.
	g.litBase = mem.AddSegment(nil)
	g.paramBase = mem.AddSegment(nil)
	g.q.ParamBase = g.paramBase
	g.collectParams(root)
	mem.SetSegment(g.paramBase, make([]byte, len(g.q.Params)*paramSlot))

	if ob, ok := root.(*plan.OrderBy); ok {
		g.q.SortKeys = ob.Keys
		g.q.Limit = ob.Limit
		root = ob.Input
	}
	g.q.Schema = root.Schema()

	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("codegen: %v", r)
			}
		}()
		outID := g.newOut(root.Schema())
		g.q.Output = g.q.Outs[outID]
		g.pipeline(root, &outSink{id: outID, schema: root.Schema()})
	}()
	if err != nil {
		return nil, err
	}
	g.q.QueryStart = queryStart(name, g.q.Pipelines)
	g.q.StateBytes, g.q.LocalBytes = g.stateOff, g.localOff
	mem.SetSegment(g.litBase, g.q.Literals)
	for _, f := range g.mod.Funcs {
		if verr := f.Verify(); verr != nil {
			return nil, fmt.Errorf("codegen: generated %s is invalid: %w", f.Name, verr)
		}
	}
	return g.q, nil
}

type cgen struct {
	mem *rt.Memory
	mod *ir.Module
	q   *Query

	colBase  map[*storage.Column]uint64
	heapBase map[*storage.Column]uint64
	codeBase map[*storage.Dict]uint64

	litBase   uint64
	litIdx    map[string]int64
	paramBase uint64

	patternIdx map[string]int

	stateOff int
	localOff int

	// pipeRewrites accumulates dictionary rewrites of the pipeline being
	// generated; addPipeline moves it into Pipeline.DictRewrites.
	pipeRewrites int
}

// noteDictRewrite records one dictionary-code rewrite against the current
// pipeline and the query totals.
func (g *cgen) noteDictRewrite(hit bool) {
	g.pipeRewrites++
	g.q.DictRewrites++
	if hit {
		g.q.DictHits++
	}
}

// ---- resource allocation ----

func (g *cgen) internLit(s string) (int64, int64) {
	if off, ok := g.litIdx[s]; ok {
		return int64(g.litBase) + off, int64(len(s))
	}
	off := int64(len(g.q.Literals))
	g.q.Literals = append(g.q.Literals, s...)
	g.litIdx[s] = off
	return int64(g.litBase) + off, int64(len(s))
}

func (g *cgen) internPattern(p string) int {
	if id, ok := g.patternIdx[p]; ok {
		return id
	}
	id := len(g.q.Patterns)
	g.q.Patterns = append(g.q.Patterns, p)
	g.patternIdx[p] = id
	return id
}

// collectParams records the type of every parameter the plan references,
// sized by the highest index, so the plan's parameter descriptors (count
// and types — the fingerprint input) are complete before any pipeline is
// emitted.
func (g *cgen) collectParams(root plan.Node) {
	visitE := func(e expr.Expr) {
		walkExpr(e, func(x expr.Expr) {
			if p, ok := x.(*expr.Param); ok {
				if p.Idx >= maxParams {
					panic(fmt.Sprintf("codegen: parameter $%d exceeds the %d-parameter limit", p.Idx+1, maxParams))
				}
				for len(g.q.Params) <= p.Idx {
					g.q.Params = append(g.q.Params, expr.Type{})
				}
				g.q.Params[p.Idx] = p.T
			}
		})
	}
	var visit func(n plan.Node)
	visit = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			visitE(x.Filter)
		case *plan.Filter:
			visitE(x.Cond)
		case *plan.Project:
			for _, e := range x.Exprs {
				visitE(e)
			}
		case *plan.Join:
			for _, e := range x.BuildKeys {
				visitE(e)
			}
			for _, e := range x.ProbeKeys {
				visitE(e)
			}
			visitE(x.Residual)
		case *plan.GroupBy:
			for _, e := range x.Keys {
				visitE(e)
			}
			for _, a := range x.Aggs {
				visitE(a.Arg)
			}
		case *plan.OrderBy:
			for _, k := range x.Keys {
				visitE(k.E)
			}
		}
		for _, c := range n.Children() {
			visit(c)
		}
	}
	visit(root)
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

// genParam emits the typed load of parameter idx from its slot in the
// parameter segment. The loads are address-indirect like every other
// segment access, so fingerprint-cached programs and code read the
// current execution's bindings.
func (g *cgen) genParam(b *ir.Builder, idx int, t expr.Type) expr.Val {
	base := b.ConstI64(int64(g.paramBase))
	off := int64(idx * paramSlot)
	switch t.Kind {
	case expr.KFloat:
		return expr.Val{X: b.Load(ir.F64, b.GEP(base, nil, 0, off))}
	case expr.KString:
		addr := b.Load(ir.I64, b.GEP(base, nil, 0, off))
		n := b.Load(ir.I64, b.GEP(base, nil, 0, off+8))
		return expr.Val{X: addr, Len: n}
	case expr.KBool:
		v := b.Load(ir.I64, b.GEP(base, nil, 0, off))
		return expr.Val{X: b.ICmp(ir.Ne, v, b.ConstI64(0))}
	default:
		return expr.Val{X: b.Load(ir.I64, b.GEP(base, nil, 0, off))}
	}
}

// BindParams installs the execution's parameter values: it builds a
// parameter segment of the slots followed by the bound strings and
// publishes it in place of the compiled one. It runs before every
// execution of a parameterized query (Compile maps a fresh address
// space per run); the value types must match the plan's descriptors — the
// fingerprint hashes the descriptors, so a mismatch means the caller bound
// values the plan was not built for.
func (q *Query) BindParams(vals []*expr.Const) error {
	if len(vals) != len(q.Params) {
		return fmt.Errorf("codegen: statement wants %d parameter(s), got %d",
			len(q.Params), len(vals))
	}
	seg := make([]byte, len(vals)*paramSlot)
	for i, v := range vals {
		if v == nil {
			return fmt.Errorf("codegen: parameter $%d is unbound", i+1)
		}
		if v.T != q.Params[i] {
			return fmt.Errorf("codegen: parameter $%d is %s, plan wants %s",
				i+1, v.T, q.Params[i])
		}
		off := i * paramSlot
		switch v.T.Kind {
		case expr.KFloat:
			binary.LittleEndian.PutUint64(seg[off:], math.Float64bits(v.F))
		case expr.KString:
			binary.LittleEndian.PutUint64(seg[off:], q.ParamBase+uint64(len(seg)))
			binary.LittleEndian.PutUint64(seg[off+8:], uint64(len(v.S)))
			seg = append(seg, v.S...)
		default:
			binary.LittleEndian.PutUint64(seg[off:], uint64(v.I))
		}
	}
	q.mem.SetSegment(q.ParamBase, seg)
	return nil
}

func (g *cgen) tableBase(c *storage.Column) uint64 {
	if b, ok := g.colBase[c]; ok {
		return b
	}
	b := g.mem.AddSegment(c.Data())
	g.colBase[c] = b
	if c.Kind == storage.String {
		g.heapBase[c] = g.mem.AddSegment(c.Heap())
	}
	return b
}

// dictBase registers the dictionary's code vector as a segment (once) and
// returns its base address for embedding as a constant, like tableBase.
func (g *cgen) dictBase(d *storage.Dict) uint64 {
	if b, ok := g.codeBase[d]; ok {
		return b
	}
	b := g.mem.AddSegment(d.Codes())
	g.codeBase[d] = b
	return b
}

// width of a value in pipeline tuples and output rows.
func valWidth(t expr.Type) int {
	if t.Kind == expr.KString {
		return 16
	}
	return 8
}

func (g *cgen) newOut(schema []plan.ColDef) int {
	d := OutDesc{WinOff: g.localOff}
	g.localOff += rt.WindowBytes
	for _, c := range schema {
		d.Cols = append(d.Cols, OutCol{Name: c.Name, T: c.T, Off: d.RowSize})
		d.RowSize += valWidth(c.T)
	}
	g.q.Outs = append(g.q.Outs, d)
	return len(g.q.Outs) - 1
}

// ---- sinks ----

type sink interface {
	// emit generates the sink code for the current tuple; res resolves
	// the current schema's columns. It must leave the builder in a block
	// that falls through to the pipeline's continue target.
	emit(p *pgen, res resolver)
	// finalize annotates the pipeline metadata.
	annotate(pl *Pipeline)
}

// ---- pipeline decomposition ----

// pipeOp is a streaming operator applied within a pipeline.
type pipeOp interface {
	apply(p *pgen, res resolver, down func(resolver))
}

// pipeline decomposes the subplan rooted at n into pipelines, emitting
// dependency pipelines (join builds, aggregations) first, then the
// pipeline computing n into the given sink.
func (g *cgen) pipeline(n plan.Node, sk sink) {
	var ops []pipeOp
	label := ""
	cur := n
	for {
		switch x := cur.(type) {
		case *plan.Filter:
			ops = append([]pipeOp{&filterOp{cond: x.Cond}}, ops...)
			cur = x.Input
		case *plan.Project:
			ops = append([]pipeOp{&projectOp{node: x}}, ops...)
			cur = x.Input
		case *plan.Join:
			jd := g.newJoinDesc(x)
			g.pipeline(x.Build, &buildSink{join: x, desc: jd})
			if x.Kind.BuildSide() {
				// Three pipelines: build, count matches, scan the table.
				g.pipeline(x.Probe, &markSink{join: x, desc: jd})
				g.emitJoinScanPipeline(jd, x, ops, sk)
				return
			}
			ops = append([]pipeOp{&probeOp{join: x, desc: jd}}, ops...)
			cur = x.Probe
		case *plan.GroupBy:
			ad := g.newAggDesc(x)
			g.pipeline(x.Input, &aggSink{node: x, id: ad})
			g.emitPipeline(nil, ad, x, ops, sk, label)
			return
		case *plan.Scan:
			if x.Filter != nil {
				ops = append([]pipeOp{&filterOp{cond: x.Filter}}, ops...)
			}
			label = "scan " + x.Table.Name
			g.emitScanPipeline(x, ops, sk, label)
			return
		case *plan.OrderBy:
			panic("codegen: ORDER BY is only supported at the plan root")
		default:
			panic(fmt.Sprintf("codegen: unsupported node %T", cur))
		}
	}
}

// joinMeta carries the per-join tuple layout shared between the build sink
// and the probe operator.
type joinMeta struct {
	id   int
	desc *JoinDesc
	// fields lists the build-schema columns stored in the tuple (payload
	// columns plus residual references; every column of a build-side
	// join), in offset order.
	fields []jfield
	byIdx  map[int]jfield
}

// jfield is one stored build column.
type jfield struct {
	srcIdx int
	off    int
	t      expr.Type
}

func (g *cgen) newJoinDesc(j *plan.Join) *joinMeta {
	bs := j.Build.Schema()
	need := map[int]bool{}
	for _, idx := range j.PayloadIdx {
		need[idx] = true
	}
	if j.Kind.BuildSide() {
		for idx := range bs {
			need[idx] = true
		}
	}
	if j.Residual != nil {
		np := len(j.Probe.Schema())
		collectCols(j.Residual, func(idx int) {
			if idx >= np {
				need[idx-np] = true
			}
		})
	}
	m := &joinMeta{byIdx: map[int]jfield{}}
	off := 16 + len(j.BuildKeys)*8
	for idx := range bs {
		if !need[idx] {
			continue
		}
		fld := jfield{srcIdx: idx, off: off, t: bs[idx].T}
		m.fields = append(m.fields, fld)
		m.byIdx[idx] = fld
		off += valWidth(bs[idx].T)
	}
	d := JoinDesc{TupleSize: off, StateOff: g.stateOff, WinOff: g.localOff, NumKeys: len(j.BuildKeys)}
	g.stateOff += rt.JoinStateBytes
	g.localOff += rt.WindowBytes
	if j.Kind.BuildSide() {
		keep := rt.KeepAll
		switch j.Kind {
		case plan.RightSemi:
			keep = rt.KeepMatched
		case plan.RightAnti:
			keep = rt.KeepUnmatched
		}
		d.Marks = &rt.MarkLayout{Off: off, LocalOff: g.localOff, IndexStateOff: g.stateOff, Keep: keep}
		d.TupleSize += 8
		g.localOff += 8
		g.stateOff += 8
	}
	g.q.Joins = append(g.q.Joins, d)
	m.id = len(g.q.Joins) - 1
	m.desc = &g.q.Joins[m.id]
	return m
}

// collectCols invokes fn for every column reference in e.
func collectCols(e expr.Expr, fn func(idx int)) {
	switch x := e.(type) {
	case *expr.ColRef:
		fn(x.Idx)
	case *expr.Arith:
		collectCols(x.L, fn)
		collectCols(x.R, fn)
	case *expr.Cmp:
		collectCols(x.L, fn)
		collectCols(x.R, fn)
	case *expr.Logic:
		for _, a := range x.Args {
			collectCols(a, fn)
		}
	case *expr.NotExpr:
		collectCols(x.Arg, fn)
	case *expr.LikeExpr:
		collectCols(x.Arg, fn)
	case *expr.InList:
		collectCols(x.Arg, fn)
	case *expr.CaseExpr:
		for _, w := range x.Whens {
			collectCols(w.Cond, fn)
			collectCols(w.Then, fn)
		}
		collectCols(x.Else, fn)
	case *expr.YearExpr:
		collectCols(x.Arg, fn)
	case *expr.SubstrExpr:
		collectCols(x.Arg, fn)
	case *expr.CastExpr:
		collectCols(x.Arg, fn)
	}
}

// aggMeta: the flattened slot layout of a group-by.
type aggMeta struct {
	id       int
	keyOffs  []int   // per group key
	slotOffs [][]int // per AggExpr, its slots (Avg has two)
}

func (g *cgen) newAggDesc(gb *plan.GroupBy) *aggMeta {
	m := &aggMeta{}
	d := AggDesc{LocalOff: g.localOff, IndexStateOff: g.stateOff, Scalar: len(gb.Keys) == 0}
	g.localOff += rt.LocalSlotBytes
	g.stateOff += 8
	off := rt.AggEntryHeader
	for _, k := range gb.Keys {
		m.keyOffs = append(m.keyOffs, off)
		d.Keys = append(d.Keys, rt.KeyField{Off: off, Str: k.Type().Kind == expr.KString})
		off += valWidth(k.Type())
	}
	addSlot := func(kind rt.AggKind) int {
		d.Aggs = append(d.Aggs, rt.AggField{Kind: kind, Off: off})
		o := off
		off += 8
		return o
	}
	for _, a := range gb.Aggs {
		var slots []int
		isFloat := a.Arg != nil && a.Arg.Type().Kind == expr.KFloat
		switch a.Func {
		case plan.Sum:
			if isFloat {
				slots = []int{addSlot(rt.AggSumF)}
			} else {
				slots = []int{addSlot(rt.AggSum)}
			}
		case plan.Min:
			if isFloat {
				slots = []int{addSlot(rt.AggMinF)}
			} else {
				slots = []int{addSlot(rt.AggMin)}
			}
		case plan.Max:
			if isFloat {
				slots = []int{addSlot(rt.AggMaxF)}
			} else {
				slots = []int{addSlot(rt.AggMax)}
			}
		case plan.Count, plan.CountStar:
			slots = []int{addSlot(rt.AggCount)}
		case plan.Avg:
			if isFloat {
				slots = []int{addSlot(rt.AggSumF), addSlot(rt.AggCount)}
			} else {
				slots = []int{addSlot(rt.AggSum), addSlot(rt.AggCount)}
			}
		}
		m.slotOffs = append(m.slotOffs, slots)
	}
	d.EntrySize = off
	g.q.Aggs = append(g.q.Aggs, d)
	m.id = len(g.q.Aggs) - 1
	return m
}
