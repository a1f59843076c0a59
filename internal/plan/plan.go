// Package plan defines the physical query plans all engines execute: scans
// with pushed-down filters, hash joins (inner, semi, anti, the outer-count
// variant, and the build-side semi, anti and count joins), hash aggregation, projection, filter, and a
// sort/limit root. Plans are built programmatically (the TPC-H queries in
// internal/tpch construct them directly; the small SQL front end lowers
// into them), already in physical form — join order and access paths are
// the plan author's choice, mirroring the paper's setting where plans come
// out of HyPer's optimizer before code generation.
package plan

import (
	"fmt"

	"aqe/internal/expr"
	"aqe/internal/storage"
)

// ColDef is one column of a node's output schema.
type ColDef struct {
	Name string
	T    expr.Type
}

// Node is a physical plan operator.
type Node interface {
	Schema() []ColDef
	Children() []Node
}

// ColIdx resolves a column name in a schema to its index, panicking if
// missing (plan construction is code; failures are bugs).
func ColIdx(schema []ColDef, name string) int {
	for i, c := range schema {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("plan: no column %q in schema %v", name, names(schema)))
}

// C builds a column reference into a schema by name.
func C(schema []ColDef, name string) expr.Expr {
	i := ColIdx(schema, name)
	return expr.Col(i, schema[i].T)
}

func names(schema []ColDef) []string {
	out := make([]string, len(schema))
	for i, c := range schema {
		out[i] = c.Name
	}
	return out
}

// typeOfColumn maps a storage column to an expression type.
func typeOfColumn(c *storage.Column) expr.Type {
	switch c.Kind {
	case storage.Int64:
		return expr.TInt
	case storage.Decimal:
		return expr.TDec(c.Scale)
	case storage.Date:
		return expr.TDate
	case storage.Float64:
		return expr.TFloat
	case storage.Char:
		return expr.TChar
	default:
		return expr.TString
	}
}

// Scan reads the named columns of a table, optionally filtering. The
// filter expression is resolved against the scan's output schema.
type Scan struct {
	Table  *storage.Table
	Cols   []string
	Filter expr.Expr // nil = none
	schema []ColDef
}

// NewScan builds a scan of the given columns.
func NewScan(t *storage.Table, cols ...string) *Scan {
	s := &Scan{Table: t, Cols: cols}
	for _, name := range cols {
		s.schema = append(s.schema, ColDef{Name: name, T: typeOfColumn(t.MustCol(name))})
	}
	return s
}

// Where attaches (conjoins) a filter to the scan and returns it.
func (s *Scan) Where(cond expr.Expr) *Scan {
	if s.Filter == nil {
		s.Filter = cond
	} else {
		s.Filter = expr.And(s.Filter, cond)
	}
	return s
}

func (s *Scan) Schema() []ColDef { return s.schema }
func (s *Scan) Children() []Node { return nil }

// Filter applies a predicate over its input schema.
type Filter struct {
	Input Node
	Cond  expr.Expr
}

// NewFilter builds a filter.
func NewFilter(in Node, cond expr.Expr) *Filter {
	if cond.Type().Kind != expr.KBool {
		panic("plan: filter condition must be boolean")
	}
	return &Filter{Input: in, Cond: cond}
}

func (f *Filter) Schema() []ColDef { return f.Input.Schema() }
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Project computes named expressions over the input schema.
type Project struct {
	Input  Node
	Exprs  []expr.Expr
	Names  []string
	schema []ColDef
}

// NewProject builds a projection.
func NewProject(in Node, exprs []expr.Expr, pnames []string) *Project {
	if len(exprs) != len(pnames) {
		panic("plan: projection arity mismatch")
	}
	p := &Project{Input: in, Exprs: exprs, Names: pnames}
	for i, e := range exprs {
		p.schema = append(p.schema, ColDef{Name: pnames[i], T: e.Type()})
	}
	return p
}

func (p *Project) Schema() []ColDef { return p.schema }
func (p *Project) Children() []Node { return []Node{p.Input} }

// JoinKind selects join semantics.
type JoinKind uint8

// Join kinds. All joins build a hash table on the build side and stream
// the probe side (the pipeline side). OuterCount emits every probe row
// extended with the number of matches — the form the decorrelated Q13
// needs; combined with zero-count filters it also expresses left-outer
// aggregation.
//
// The build-side kinds return build rows instead: RightSemi the build rows
// with at least one match, RightAnti those with none, and RightCount every
// build row extended with its number of matches. They exist so that a plan
// can hash the smaller input whichever side its result comes from: the
// probe only counts matches per build row, and a scan of the table emits
// the rows afterwards.
const (
	Inner JoinKind = iota
	Semi
	Anti
	OuterCount
	RightSemi
	RightAnti
	RightCount
)

func (k JoinKind) String() string {
	return [...]string{"inner", "semi", "anti", "outercount",
		"rightsemi", "rightanti", "rightcount"}[k]
}

// BuildSide reports whether the join returns build-side rows.
func (k JoinKind) BuildSide() bool { return k >= RightSemi }

// Counts reports whether the join appends a match-count column.
func (k JoinKind) Counts() bool { return k == OuterCount || k == RightCount }

// Join is a hash join. Keys must be integer-representable (int, date,
// char, decimal — TPC-H joins exclusively on integer keys). Payload names
// the build columns carried into the output (for Inner joins).
//
// The output schema is: probe schema, then (Inner only) the named build
// payload columns, then (OuterCount only) the match-count column. A
// build-side kind outputs the build schema instead, then (RightCount only)
// the match-count column.
type Join struct {
	Kind       JoinKind
	Build      Node
	Probe      Node
	BuildKeys  []expr.Expr // over build schema
	ProbeKeys  []expr.Expr // over probe schema
	Payload    []string    // build columns carried (Inner)
	PayloadIdx []int
	// Residual is an extra predicate evaluated per candidate match over
	// the combined schema [probe cols ++ ALL build cols]; build columns
	// are addressed at probe-schema-len + build index.
	Residual expr.Expr
	// CountName names the match-count column of OuterCount and RightCount.
	CountName string
	// Est is the optimizer's estimated build-side cardinality (rows
	// entering the hash table), or 0 when no estimate exists (hand-built
	// plans). The engine compares it against the observed count at the
	// build's pipeline-breaker finalize to detect misestimates.
	Est int64

	schema []ColDef
}

// NewJoin builds a hash join.
func NewJoin(kind JoinKind, build, probe Node, buildKeys, probeKeys []expr.Expr,
	payload []string) *Join {
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		panic("plan: join key arity mismatch")
	}
	for i := range buildKeys {
		bt, pt := buildKeys[i].Type(), probeKeys[i].Type()
		if bt.Kind == expr.KString || pt.Kind == expr.KString ||
			bt.Kind == expr.KFloat || pt.Kind == expr.KFloat {
			panic("plan: join keys must be integer-representable")
		}
	}
	j := &Join{Kind: kind, Build: build, Probe: probe,
		BuildKeys: buildKeys, ProbeKeys: probeKeys, Payload: payload,
		CountName: "match_count"}
	if kind.BuildSide() {
		if len(payload) != 0 {
			panic("plan: build-side joins carry no payload")
		}
		j.schema = append(j.schema, build.Schema()...)
		if kind == RightCount {
			j.schema = append(j.schema, ColDef{Name: j.CountName, T: expr.TInt})
		}
		return j
	}
	j.schema = append(j.schema, probe.Schema()...)
	switch kind {
	case Inner:
		bs := build.Schema()
		for _, name := range payload {
			idx := ColIdx(bs, name)
			j.PayloadIdx = append(j.PayloadIdx, idx)
			j.schema = append(j.schema, bs[idx])
		}
	case OuterCount:
		if len(payload) != 0 {
			panic("plan: outer-count join carries no payload")
		}
		j.schema = append(j.schema, ColDef{Name: j.CountName, T: expr.TInt})
	default:
		if len(payload) != 0 {
			panic("plan: semi/anti joins carry no payload")
		}
	}
	return j
}

// WithResidual attaches a residual predicate (see Join.Residual).
func (j *Join) WithResidual(e expr.Expr) *Join {
	if e.Type().Kind != expr.KBool {
		panic("plan: residual must be boolean")
	}
	j.Residual = e
	return j
}

// Named renames the match-count column of an OuterCount or RightCount join.
func (j *Join) Named(count string) *Join {
	if !j.Kind.Counts() {
		panic("plan: Named applies to outer-count and right-count joins")
	}
	j.CountName = count
	// Rebuild the last schema column.
	j.schema[len(j.schema)-1].Name = count
	return j
}

// CombinedSchema returns [probe ++ build] for residual resolution.
func (j *Join) CombinedSchema() []ColDef {
	return append(append([]ColDef{}, j.Probe.Schema()...), j.Build.Schema()...)
}

func (j *Join) Schema() []ColDef { return j.schema }
func (j *Join) Children() []Node { return []Node{j.Build, j.Probe} }

// AggFunc is an aggregate function.
type AggFunc uint8

// Aggregate functions. Avg is lowered to sum and count with a final
// division; its result type is float.
const (
	Sum AggFunc = iota
	Min
	Max
	Count     // COUNT(expr); without NULLs it equals COUNT(*)
	CountStar // COUNT(*)
	Avg
)

func (f AggFunc) String() string {
	return [...]string{"sum", "min", "max", "count", "count(*)", "avg"}[f]
}

// AggExpr is one aggregate of a GroupBy.
type AggExpr struct {
	Func AggFunc
	Arg  expr.Expr // nil for CountStar
	Name string
}

// resultType computes the aggregate's output type.
func (a AggExpr) resultType() expr.Type {
	switch a.Func {
	case Count, CountStar:
		return expr.TInt
	case Avg:
		return expr.TFloat
	default:
		return a.Arg.Type()
	}
}

// GroupBy is hash aggregation. Output schema: key columns (named by
// KeyNames) then aggregate columns. With no keys it produces exactly one
// row (scalar aggregation).
type GroupBy struct {
	Input    Node
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggExpr
	schema   []ColDef
}

// NewGroupBy builds a hash aggregation.
func NewGroupBy(in Node, keys []expr.Expr, keyNames []string, aggs []AggExpr) *GroupBy {
	if len(keys) != len(keyNames) {
		panic("plan: group key naming mismatch")
	}
	g := &GroupBy{Input: in, Keys: keys, KeyNames: keyNames, Aggs: aggs}
	for i, k := range keys {
		g.schema = append(g.schema, ColDef{Name: keyNames[i], T: k.Type()})
	}
	for _, a := range aggs {
		if a.Func == Sum || a.Func == Min || a.Func == Max || a.Func == Avg {
			if a.Arg == nil || !a.Arg.Type().Numeric() {
				panic(fmt.Sprintf("plan: %s needs a numeric argument", a.Func))
			}
		}
		g.schema = append(g.schema, ColDef{Name: a.Name, T: a.resultType()})
	}
	return g
}

func (g *GroupBy) Schema() []ColDef { return g.schema }
func (g *GroupBy) Children() []Node { return []Node{g.Input} }

// SortKey is one ORDER BY key, evaluated over the root schema.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// OrderBy sorts (and optionally limits) the rows of its input. It is only
// valid as the root of a stage; sorting happens on the materialized result.
type OrderBy struct {
	Input Node
	Keys  []SortKey
	Limit int // -1: no limit
}

// NewOrderBy builds a sort/limit root.
func NewOrderBy(in Node, keys []SortKey, limit int) *OrderBy {
	return &OrderBy{Input: in, Keys: keys, Limit: limit}
}

func (o *OrderBy) Schema() []ColDef { return o.Input.Schema() }
func (o *OrderBy) Children() []Node { return []Node{o.Input} }

// Stage is one execution stage of a query: a plan whose result
// materializes into a temporary table visible to later stages.
type Stage struct {
	Name string
	// Build constructs the stage plan; prior holds the materialized
	// results of earlier stages by name (hand-decorrelated subqueries
	// read scalars out of them or scan them).
	Build func(prior map[string]*storage.Table) Node
}

// Query is a multi-stage query; the last stage produces the result. Most
// queries have a single stage; decorrelated subqueries (Q2, Q11, Q15, Q17,
// Q20, Q22) use two or three.
type Query struct {
	Name   string
	Stages []Stage
}

// SingleStage wraps a plan-building function into a one-stage query.
func SingleStage(name string, build func() Node) Query {
	return Query{Name: name, Stages: []Stage{{
		Name:  name,
		Build: func(map[string]*storage.Table) Node { return build() },
	}}}
}
