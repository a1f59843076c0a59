package opt

import (
	"math"
	"strings"

	"aqe/internal/expr"
	"aqe/internal/storage"
)

// Default selectivities for predicates the statistics cannot size — the
// classic System R constants, kept deliberately coarse: the adaptive
// replan path corrects what they get wrong.
const (
	selDefault = 1.0 / 3.0 // unestimable comparison / unknown predicate
	selEq      = 0.1       // equality without NDV
	selLike    = 0.1       // LIKE with wildcards
)

// sel is an estimated selectivity. impossible marks a conjunct that is
// provably unsatisfiable (zone-map range excludes the constant, or a
// string literal is absent from the dictionary): the estimate is exactly
// 0, not merely small, which is what licenses the orderer's early-exit.
type sel struct {
	frac       float64
	impossible bool
}

func (s sel) and(o sel) sel {
	return sel{frac: s.frac * o.frac, impossible: s.impossible || o.impossible}
}

func (s sel) or(o sel) sel {
	f := 1 - (1-s.frac)*(1-o.frac)
	return sel{frac: f, impossible: s.impossible && o.impossible}
}

func (s sel) not() sel {
	// NOT of an impossible predicate is a tautology, not impossible.
	return sel{frac: 1 - s.frac}
}

func clampSel(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// relSel estimates the selectivity of a relation's pushed-down filter
// from storage statistics (zone-map global ranges, dictionary NDV).
func relSel(r *Relation) sel {
	if r.Filter == nil {
		return sel{frac: 1}
	}
	return exprSel(r.Filter, r)
}

// exprSel walks a boolean expression over the relation's scan schema.
func exprSel(e expr.Expr, r *Relation) sel {
	switch x := e.(type) {
	case *expr.Logic:
		if x.IsAnd {
			return andSel(x, r)
		}
		out := exprSel(x.Args[0], r)
		for _, a := range x.Args[1:] {
			out = out.or(exprSel(a, r))
		}
		out.frac = clampSel(out.frac)
		return out
	case *expr.NotExpr:
		return exprSel(x.Arg, r).not()
	case *expr.Cmp:
		return cmpSel(x, r)
	case *expr.InList:
		return inSel(x, r)
	case *expr.LikeExpr:
		s := likeSel(x, r)
		if x.Negate {
			return s.not()
		}
		return s
	case *expr.Const:
		if x.T.Kind == expr.KBool {
			if x.I == 0 {
				return sel{frac: 0, impossible: true}
			}
			return sel{frac: 1}
		}
	}
	return sel{frac: selDefault}
}

// andSel estimates a conjunction, nested ANDs flattened, under the
// independence model — except that literal range bounds on one column are
// one interval, not independent events. The tightest lower and upper
// bound combine as s_lo + s_hi − 1 (the overlap of two one-sided ranges),
// floored at one distinct value: `d >= a AND d < b` over a column uniform
// on [lo, hi] is (b−a)/(hi−lo), where the product would be
// (hi−a)(b−lo)/(hi−lo)². Bounds against parameters keep the independent
// default, so a prepared plan's shape never depends on the values bound.
func andSel(x *expr.Logic, r *Relation) sel {
	type interval struct {
		col    *expr.ColRef
		lo, hi sel // the tightest bound on each side; frac 1 when unbounded
	}
	tighter := func(a, b sel) sel {
		return sel{frac: math.Min(a.frac, b.frac), impossible: a.impossible || b.impossible}
	}
	var ivs []*interval
	out := sel{frac: 1}
	var visit func(e expr.Expr)
	visit = func(e expr.Expr) {
		if l, ok := e.(*expr.Logic); ok && l.IsAnd {
			for _, a := range l.Args {
				visit(a)
			}
			return
		}
		s := exprSel(e, r)
		col, upper := boundOf(e)
		if col == nil {
			out = out.and(s)
			return
		}
		var iv *interval
		for _, v := range ivs {
			if v.col.Idx == col.Idx {
				iv = v
			}
		}
		if iv == nil {
			iv = &interval{col: col, lo: sel{frac: 1}, hi: sel{frac: 1}}
			ivs = append(ivs, iv)
		}
		if upper {
			iv.hi = tighter(iv.hi, s)
		} else {
			iv.lo = tighter(iv.lo, s)
		}
	}
	visit(x)
	for _, iv := range ivs {
		floor := selEq
		if _, st, ok := colStats(r, iv.col); ok && st.NDV > 0 {
			floor = 1 / float64(st.NDV)
		}
		out = out.and(sel{
			frac:       math.Max(iv.lo.frac+iv.hi.frac-1, floor),
			impossible: iv.lo.impossible || iv.hi.impossible,
		})
	}
	out.frac = clampSel(out.frac)
	return out
}

// boundOf returns the column of a range bound `column <op> literal`
// (either operand order) and whether it bounds from above; nil when e is
// not one.
func boundOf(e expr.Expr) (col *expr.ColRef, upper bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return nil, false
	}
	ref, lit, op := c.L, c.R, c.Op
	if _, isCol := ref.(*expr.ColRef); !isCol {
		ref, lit, op = c.R, c.L, flip(c.Op)
	}
	col, isCol := ref.(*expr.ColRef)
	if _, isLit := lit.(*expr.Const); !isCol || !isLit {
		return nil, false
	}
	switch op {
	case expr.CmpLt, expr.CmpLe:
		return col, true
	case expr.CmpGt, expr.CmpGe:
		return col, false
	}
	return nil, false
}

// colStats resolves a ColRef of the scan schema to its column statistics.
func colStats(r *Relation, e expr.Expr) (*storage.Column, storage.ColStats, bool) {
	cr, ok := e.(*expr.ColRef)
	if !ok || cr.Idx < 0 || cr.Idx >= len(r.Cols) {
		return nil, storage.ColStats{}, false
	}
	c := r.Table.Col(r.Cols[cr.Idx])
	if c == nil {
		return nil, storage.ColStats{}, false
	}
	return c, c.Stats(), true
}

// constVal extracts a literal usable against the column's stored domain:
// integer-representable kinds compare in the raw stored integers (dates
// as day numbers, decimals as scaled integers rescaled to the column's
// scale, chars as bytes), strings through the dictionary-code order.
func constVal(e expr.Expr, c *storage.Column) (iv int64, fv float64, s string, kind expr.Kind, ok bool) {
	cn, isConst := e.(*expr.Const)
	if !isConst {
		return 0, 0, "", 0, false
	}
	switch cn.T.Kind {
	case expr.KString:
		return 0, 0, cn.S, expr.KString, true
	case expr.KFloat:
		return 0, cn.F, "", expr.KFloat, true
	case expr.KDecimal:
		v := float64(cn.I)
		for sc := cn.T.Scale; sc < c.Scale; sc++ {
			v *= 10
		}
		for sc := c.Scale; sc < cn.T.Scale; sc++ {
			v /= 10
		}
		return int64(v), v, "", expr.KDecimal, true
	default: // int, date, char, bool
		return cn.I, float64(cn.I), "", cn.T.Kind, true
	}
}

// cmpSel estimates col <op> const (either operand order) from the
// column's global range and NDV.
func cmpSel(x *expr.Cmp, r *Relation) sel {
	col, st, ok := colStats(r, x.L)
	cexp, op := x.R, x.Op
	if !ok {
		col, st, ok = colStats(r, x.R)
		cexp = x.L
		op = flip(x.Op)
	}
	if !ok {
		if op == expr.CmpEq {
			return sel{frac: selEq}
		}
		return sel{frac: selDefault}
	}
	iv, fv, s, kind, ok := constVal(cexp, col)
	if !ok {
		if op == expr.CmpEq {
			return sel{frac: selEq}
		}
		return sel{frac: selDefault}
	}

	// Strings: translate to the dictionary-code domain; without a fresh
	// dictionary there is no orderable representation, so fall back.
	if col.Kind == storage.String {
		if kind != expr.KString {
			return sel{frac: selDefault}
		}
		d := col.Dict()
		if d == nil {
			if op == expr.CmpEq {
				return sel{frac: selEq}
			}
			return sel{frac: selDefault}
		}
		switch op {
		case expr.CmpEq:
			if _, present := d.Code(s); !present {
				return sel{impossible: true}
			}
			return sel{frac: 1 / float64(d.Card())}
		case expr.CmpNe:
			if _, present := d.Code(s); !present {
				return sel{frac: 1}
			}
			return sel{frac: 1 - 1/float64(d.Card())}
		}
		// Ordering predicate: code < LowerBound(s) ⇔ value < s.
		lb := float64(d.LowerBound(s))
		n := float64(d.Card())
		var frac float64
		switch op {
		case expr.CmpLt:
			frac = lb / n
		case expr.CmpLe:
			if _, present := d.Code(s); present {
				lb++
			}
			frac = lb / n
		case expr.CmpGe:
			frac = (n - lb) / n
		default: // CmpGt
			if _, present := d.Code(s); present {
				lb++
			}
			frac = (n - lb) / n
		}
		frac = clampSel(frac)
		if frac == 0 {
			return sel{impossible: true}
		}
		return sel{frac: frac}
	}

	if !st.HasRange {
		if op == expr.CmpEq {
			if st.NDV > 0 {
				return sel{frac: 1 / float64(st.NDV)}
			}
			return sel{frac: selEq}
		}
		return sel{frac: selDefault}
	}
	if st.Float {
		return rangeSel(op, fv, st.MinF, st.MaxF, float64(st.NDV))
	}
	if kind == expr.KFloat || kind == expr.KString {
		return sel{frac: selDefault}
	}
	return rangeSel(op, float64(iv), float64(st.MinI), float64(st.MaxI), float64(st.NDV))
}

// rangeSel estimates a comparison against [lo, hi] assuming a uniform
// value distribution — exactly the assumption the adaptive replan path
// exists to correct when it is wrong.
func rangeSel(op expr.CmpOp, v, lo, hi, ndv float64) sel {
	span := hi - lo
	switch op {
	case expr.CmpEq:
		if v < lo || v > hi {
			return sel{impossible: true}
		}
		if ndv > 0 {
			return sel{frac: 1 / ndv}
		}
		return sel{frac: selEq}
	case expr.CmpNe:
		if v < lo || v > hi {
			return sel{frac: 1}
		}
		if ndv > 0 {
			return sel{frac: 1 - 1/ndv}
		}
		return sel{frac: 1 - selEq}
	}
	var frac float64
	switch op {
	case expr.CmpLt, expr.CmpLe:
		switch {
		case v < lo:
			return sel{impossible: true}
		case v >= hi:
			return sel{frac: 1}
		case span <= 0:
			return sel{frac: 1}
		default:
			frac = (v - lo) / span
		}
	default: // CmpGt, CmpGe
		switch {
		case v > hi:
			return sel{impossible: true}
		case v <= lo:
			return sel{frac: 1}
		case span <= 0:
			return sel{frac: 1}
		default:
			frac = (hi - v) / span
		}
	}
	if frac <= 0 {
		// The constant sits exactly on the range boundary: at least the
		// boundary value can match, so keep a floor of one distinct value.
		if ndv > 0 {
			frac = 1 / ndv
		} else {
			frac = selEq
		}
	}
	return sel{frac: clampSel(frac)}
}

// inSel estimates membership in a literal list: k matching values out of
// NDV, with dictionary lookups filtering provably-absent strings.
func inSel(x *expr.InList, r *Relation) sel {
	col, st, ok := colStats(r, x.Arg)
	if !ok {
		return sel{frac: selDefault}
	}
	if col.Kind == storage.String {
		if d := col.Dict(); d != nil {
			hits := 0
			for _, c := range x.List {
				if _, present := d.Code(c.S); present {
					hits++
				}
			}
			if hits == 0 {
				return sel{impossible: true}
			}
			return sel{frac: clampSel(float64(hits) / float64(d.Card()))}
		}
		return sel{frac: clampSel(selEq * float64(len(x.List)))}
	}
	if st.NDV > 0 {
		hits := 0
		for _, c := range x.List {
			iv, _, _, kind, ok := constVal(c, col)
			if !ok || kind == expr.KFloat || kind == expr.KString ||
				!st.HasRange || (iv >= st.MinI && iv <= st.MaxI) {
				hits++
			}
		}
		if hits == 0 && st.HasRange {
			return sel{impossible: true}
		}
		return sel{frac: clampSel(float64(hits) / float64(st.NDV))}
	}
	return sel{frac: clampSel(selEq * float64(len(x.List)))}
}

// likeSel estimates a LIKE: an exact pattern is an equality through the
// dictionary; a pure-prefix pattern is a code range; anything else gets
// the default.
func likeSel(x *expr.LikeExpr, r *Relation) sel {
	col, _, ok := colStats(r, x.Arg)
	if !ok || col.Kind != storage.String {
		return sel{frac: selLike}
	}
	d := col.Dict()
	if d == nil {
		return sel{frac: selLike}
	}
	pat := x.Pattern
	if !strings.ContainsAny(pat, "%_") {
		if _, present := d.Code(pat); !present {
			return sel{impossible: true}
		}
		return sel{frac: 1 / float64(d.Card())}
	}
	if i := strings.IndexAny(pat, "%_"); i > 0 && pat[i] == '%' && i == len(pat)-1 {
		// prefix% — the code range [LowerBound(prefix), LowerBound(prefix+∞)).
		prefix := pat[:i]
		lo := d.LowerBound(prefix)
		hi := d.LowerBound(prefix + "\xff\xff\xff\xff")
		if hi <= lo {
			return sel{impossible: true}
		}
		return sel{frac: clampSel(float64(hi-lo) / float64(d.Card()))}
	}
	return sel{frac: selLike}
}

func flip(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CmpLt:
		return expr.CmpGt
	case expr.CmpLe:
		return expr.CmpGe
	case expr.CmpGt:
		return expr.CmpLt
	case expr.CmpGe:
		return expr.CmpLe
	}
	return op
}
