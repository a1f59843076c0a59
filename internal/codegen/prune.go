package codegen

import (
	"math"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// PruneCond is one sargable conjunct of a scan's pushed-down filter,
// usable for zone-map pruning: every surviving tuple must satisfy
// `column Op threshold`. The threshold is pre-normalized to the column's
// stored representation (Decimal thresholds rescaled to the column's
// scale, Float64 thresholds converted with the same int->float semantics
// the generated comparison uses), so block pruning compares raw zone-map
// statistics against it with no further conversion.
//
// Pruning is purely conservative: the generated code keeps the full
// residual predicate, the descriptor only licenses skipping blocks whose
// min/max prove no contained row can pass this conjunct.
type PruneCond struct {
	Col *storage.Column
	Op  expr.CmpOp
	I   int64   // threshold for integer-representable columns
	F   float64 // threshold for Float64 columns
}

// Float reports whether the condition compares in the float domain.
func (pc PruneCond) Float() bool { return pc.Col.Kind == storage.Float64 }

// BlockMayMatch reports whether some value in [min, max] can satisfy the
// condition (integer-representable columns). A false return proves every
// row of the block fails this conjunct, licensing a skip.
func (pc PruneCond) BlockMayMatch(min, max int64) bool {
	switch pc.Op {
	case expr.CmpEq:
		return min <= pc.I && pc.I <= max
	case expr.CmpNe:
		// Only a constant block equal to the threshold is unsatisfiable.
		return !(min == pc.I && max == pc.I)
	case expr.CmpLt:
		return min < pc.I
	case expr.CmpLe:
		return min <= pc.I
	case expr.CmpGt:
		return max > pc.I
	case expr.CmpGe:
		return max >= pc.I
	}
	return true
}

// BlockMayMatchF is BlockMayMatch for Float64 columns. An empty range
// (min=+Inf, max=-Inf: all-NaN block) satisfies nothing, and NaN rows
// inside a populated block cannot satisfy any comparison, so statistics
// that ignore NaNs stay conservative.
func (pc PruneCond) BlockMayMatchF(min, max float64) bool {
	switch pc.Op {
	case expr.CmpEq:
		return min <= pc.F && pc.F <= max
	case expr.CmpNe:
		return !(min == pc.F && max == pc.F)
	case expr.CmpLt:
		return min < pc.F
	case expr.CmpLe:
		return min <= pc.F
	case expr.CmpGt:
		return max > pc.F
	case expr.CmpGe:
		return max >= pc.F
	}
	return true
}

// extractPrune collects the sargable conjuncts of a scan filter: the
// top-level AND is flattened and every `col <cmp> const` (either operand
// order) over a fixed-width column becomes a PruneCond. String conjuncts
// (comparisons, IN, LIKE) over dictionary-encoded columns become
// conditions on dictionary codes, matching the code-valued zone maps.
// Conjuncts of no usable shape — disjunctions, column-column comparisons,
// strings without a dictionary — contribute nothing; the residual
// predicate still runs in full inside the generated kernel.
func (g *cgen) extractPrune(s *plan.Scan) []PruneCond {
	if s.Filter == nil {
		return nil
	}
	var out []PruneCond
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		if l, ok := e.(*expr.Logic); ok && l.IsAnd {
			for _, a := range l.Args {
				walk(a)
			}
			return
		}
		if pc, ok := sargable(s, e); ok {
			out = append(out, pc)
			return
		}
		out = append(out, stringPrune(s, e)...)
	}
	walk(s.Filter)
	return out
}

// dictPruneMaxCard bounds the dictionary cardinality for which a LIKE
// conjunct is evaluated against every dictionary value at plan-compile
// time to derive its matched-code range (mirrors the bitmap-rewrite cap).
const dictPruneMaxCard = 1 << 16

// stringPrune derives code-domain PruneConds from a string conjunct over a
// dictionary-encoded scan column. Equality and ordering map to the exact
// code / code-range of the literal; IN and LIKE map to the min/max matched
// code (a conservative envelope — blocks inside it still run the full
// predicate). A conjunct no dictionary value satisfies yields the
// impossible condition code = -1, pruning every block.
func stringPrune(s *plan.Scan, e expr.Expr) []PruneCond {
	colDict := func(ce expr.Expr) (*storage.Column, *storage.Dict) {
		cr, ok := ce.(*expr.ColRef)
		if !ok || cr.Idx < 0 || cr.Idx >= len(s.Cols) {
			return nil, nil
		}
		col := s.Table.Col(s.Cols[cr.Idx])
		if col == nil || col.Kind != storage.String {
			return nil, nil
		}
		return col, col.Dict()
	}
	none := func(col *storage.Column) []PruneCond {
		return []PruneCond{{Col: col, Op: expr.CmpEq, I: -1}}
	}
	span := func(col *storage.Column, lo, hi int64) []PruneCond {
		return []PruneCond{
			{Col: col, Op: expr.CmpGe, I: lo},
			{Col: col, Op: expr.CmpLe, I: hi},
		}
	}
	switch x := e.(type) {
	case *expr.Cmp:
		colE, constE, op := x.L, x.R, x.Op
		if _, isCol := colE.(*expr.ColRef); !isCol {
			colE, constE = x.R, x.L
			op = flipCmp(op)
		}
		col, d := colDict(colE)
		cst, isConst := constE.(*expr.Const)
		if col == nil || d == nil || !isConst || cst.T.Kind != expr.KString {
			return nil
		}
		code, found := d.Code(cst.S)
		lb := d.LowerBound(cst.S)
		ub := lb
		if found {
			ub++
		}
		switch op {
		case expr.CmpEq:
			if !found {
				return none(col)
			}
			return []PruneCond{{Col: col, Op: expr.CmpEq, I: code}}
		case expr.CmpNe:
			if !found {
				return nil
			}
			return []PruneCond{{Col: col, Op: expr.CmpNe, I: code}}
		case expr.CmpLt:
			return []PruneCond{{Col: col, Op: expr.CmpLt, I: lb}}
		case expr.CmpLe:
			return []PruneCond{{Col: col, Op: expr.CmpLt, I: ub}}
		case expr.CmpGt:
			return []PruneCond{{Col: col, Op: expr.CmpGe, I: ub}}
		default: // CmpGe
			return []PruneCond{{Col: col, Op: expr.CmpGe, I: lb}}
		}
	case *expr.InList:
		col, d := colDict(x.Arg)
		if col == nil || d == nil {
			return nil
		}
		lo, hi := int64(math.MaxInt64), int64(-1)
		for _, c := range x.List {
			if code, ok := d.Code(c.S); ok {
				if code < lo {
					lo = code
				}
				if code > hi {
					hi = code
				}
			}
		}
		if hi < 0 {
			return none(col)
		}
		return span(col, lo, hi)
	case *expr.LikeExpr:
		if x.Negate {
			return nil
		}
		col, d := colDict(x.Arg)
		if col == nil || d == nil || d.Card() > dictPruneMaxCard {
			return nil
		}
		lo, hi := int64(-1), int64(-1)
		for i := 0; i < d.Card(); i++ {
			if x.Compiled.Match([]byte(d.Value(i))) {
				if lo < 0 {
					lo = int64(i)
				}
				hi = int64(i)
			}
		}
		if lo < 0 {
			return none(col)
		}
		return span(col, lo, hi)
	}
	return nil
}

// sargable recognizes `col <cmp> const` / `const <cmp> col` over a
// fixed-width scan column and normalizes it into a PruneCond. It rejects
// any shape whose runtime evaluation could rescale the column value (the
// rescale carries an overflow check, and pruning must never elide a
// potential trap), so only constants at or below the column's decimal
// scale qualify.
func sargable(s *plan.Scan, e expr.Expr) (PruneCond, bool) {
	cmp, ok := e.(*expr.Cmp)
	if !ok {
		return PruneCond{}, false
	}
	colE, constE, op := cmp.L, cmp.R, cmp.Op
	if _, isCol := colE.(*expr.ColRef); !isCol {
		colE, constE = cmp.R, cmp.L
		op = flipCmp(op)
	}
	cr, ok := colE.(*expr.ColRef)
	if !ok {
		return PruneCond{}, false
	}
	cst, ok := constE.(*expr.Const)
	if !ok {
		return PruneCond{}, false
	}
	if cr.Idx < 0 || cr.Idx >= len(s.Cols) {
		return PruneCond{}, false
	}
	col := s.Table.Col(s.Cols[cr.Idx])
	if col == nil {
		return PruneCond{}, false
	}
	pc := PruneCond{Col: col, Op: op}
	switch col.Kind {
	case storage.Int64:
		if cst.T.Kind != expr.KInt {
			return PruneCond{}, false
		}
		pc.I = cst.I
	case storage.Date:
		if cst.T.Kind != expr.KDate {
			return PruneCond{}, false
		}
		pc.I = cst.I
	case storage.Char:
		if cst.T.Kind != expr.KChar {
			return PruneCond{}, false
		}
		pc.I = cst.I
	case storage.Decimal:
		var cscale int
		switch cst.T.Kind {
		case expr.KInt:
			cscale = 0
		case expr.KDecimal:
			cscale = cst.T.Scale
		default:
			return PruneCond{}, false
		}
		if cscale > col.Scale {
			// The runtime would rescale the column value (with an
			// overflow check); not prunable.
			return PruneCond{}, false
		}
		v, ok := mulPow10(cst.I, col.Scale-cscale)
		if !ok {
			return PruneCond{}, false
		}
		pc.I = v
	case storage.Float64:
		// Mirror toFloatIR: SIToFP then a divide by 10^scale.
		switch cst.T.Kind {
		case expr.KFloat:
			pc.F = cst.F
		case expr.KInt:
			pc.F = float64(cst.I)
		case expr.KDecimal:
			pc.F = float64(cst.I) / float64(pow10(cst.T.Scale))
		default:
			return PruneCond{}, false
		}
	default: // String
		return PruneCond{}, false
	}
	return pc, true
}

// flipCmp mirrors a comparison across its operands (const <cmp> col ->
// col <cmp'> const).
func flipCmp(op expr.CmpOp) expr.CmpOp {
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
	return op // Eq, Ne are symmetric
}

// mulPow10 scales v by 10^p, reporting overflow instead of wrapping.
func mulPow10(v int64, p int) (int64, bool) {
	for i := 0; i < p; i++ {
		if v > math.MaxInt64/10 || v < math.MinInt64/10 {
			return 0, false
		}
		v *= 10
	}
	return v, true
}
