// Package expr implements the typed scalar expression language shared by
// all four execution engines: the plan layer builds expression trees, the
// code generator lowers them to IR (with overflow-checked arithmetic, the
// paper's §IV-F fusion target), and the Volcano/column-at-a-time baseline
// engines evaluate them directly with the interpreter in eval.go.
//
// The type system follows TPC-H's needs: 64-bit integers, fixed-point
// decimals as scaled integers, dates as day numbers, floats, booleans,
// single characters and strings. There are no NULLs (TPC-H data contains
// none; see DESIGN.md).
package expr

import (
	"fmt"
	"strings"

	"aqe/internal/rt"
)

// Kind is a scalar type kind.
type Kind uint8

// Scalar kinds.
const (
	KInt Kind = iota
	KDecimal
	KDate
	KFloat
	KBool
	KChar
	KString
)

func (k Kind) String() string {
	return [...]string{"int", "decimal", "date", "float", "bool", "char", "string"}[k]
}

// Type is a scalar type (kind plus decimal scale).
type Type struct {
	Kind  Kind
	Scale int
}

func (t Type) String() string {
	if t.Kind == KDecimal {
		return fmt.Sprintf("decimal(%d)", t.Scale)
	}
	return t.Kind.String()
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool {
	return t.Kind == KInt || t.Kind == KDecimal || t.Kind == KFloat
}

// Common type shorthands.
var (
	TInt    = Type{Kind: KInt}
	TDate   = Type{Kind: KDate}
	TFloat  = Type{Kind: KFloat}
	TBool   = Type{Kind: KBool}
	TChar   = Type{Kind: KChar}
	TString = Type{Kind: KString}
)

// TDec returns a decimal type with the given scale.
func TDec(scale int) Type { return Type{Kind: KDecimal, Scale: scale} }

// Expr is a typed scalar expression node.
type Expr interface {
	Type() Type
}

// ColRef references column Idx of the input row schema.
type ColRef struct {
	Idx int
	T   Type
}

func (c *ColRef) Type() Type { return c.T }

// Const is a literal. I carries int/decimal/date/bool/char values, F
// floats, S strings.
type Const struct {
	T Type
	I int64
	F float64
	S string
}

func (c *Const) Type() Type { return c.T }

// Param references prepared-statement parameter Idx ($1 is Idx 0). Unlike
// a Const, its value is not part of the expression tree: generated code
// loads it from the query's parameter segment at execution time, so plans
// that differ only in parameter values share IR — and therefore share a
// plan-cache fingerprint and compiled tiers.
type Param struct {
	Idx int
	T   Type
}

func (p *Param) Type() Type { return p.T }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith is checked arithmetic. The result type follows the decimal rules
// computed by the constructor.
type Arith struct {
	Op   ArithOp
	L, R Expr
	T    Type
}

func (a *Arith) Type() Type { return a.T }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Cmp compares two values of a common type.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) Type() Type { return TBool }

// Logic is AND/OR over booleans (two-valued: no NULLs).
type Logic struct {
	IsAnd bool
	Args  []Expr
}

func (l *Logic) Type() Type { return TBool }

// NotExpr negates a boolean.
type NotExpr struct{ Arg Expr }

func (n *NotExpr) Type() Type { return TBool }

// LikeExpr matches a string column against a compiled pattern.
type LikeExpr struct {
	Arg     Expr
	Pattern string
	// Compiled is used by the interpreted evaluator; generated code
	// references the pattern through the query state by index.
	Compiled *rt.LikePattern
	Negate   bool
}

func (l *LikeExpr) Type() Type { return TBool }

// InList tests membership in a list of constants of the argument's type.
type InList struct {
	Arg  Expr
	List []*Const
}

func (i *InList) Type() Type { return TBool }

// When is one CASE arm.
type When struct {
	Cond Expr
	Then Expr
}

// CaseExpr is CASE WHEN ... THEN ... ELSE ... END.
type CaseExpr struct {
	Whens []When
	Else  Expr
	T     Type
}

func (c *CaseExpr) Type() Type { return c.T }

// YearExpr extracts the calendar year of a date.
type YearExpr struct{ Arg Expr }

func (y *YearExpr) Type() Type { return TInt }

// SubstrExpr takes the fixed substring [From, From+Len) (1-based From) of
// a string.
type SubstrExpr struct {
	Arg       Expr
	From, Len int
}

func (s *SubstrExpr) Type() Type { return TString }

// CastExpr converts between numeric types (int/decimal/float widening and
// decimal rescaling).
type CastExpr struct {
	Arg Expr
	T   Type
}

func (c *CastExpr) Type() Type { return c.T }

// --- Constructors (they type-check eagerly; plan construction bugs are
// programming errors, so violations panic with context). ---

// Col references a column.
func Col(idx int, t Type) Expr { return &ColRef{Idx: idx, T: t} }

// Int returns an integer literal.
func Int(v int64) Expr { return &Const{T: TInt, I: v} }

// Dec returns a decimal literal with the given scale ("1.25" at scale 2 is
// Dec(125, 2)).
func Dec(v int64, scale int) Expr { return &Const{T: TDec(scale), I: v} }

// Date returns a date literal from days since the epoch.
func Date(days int64) Expr { return &Const{T: TDate, I: days} }

// Float returns a float literal.
func Float(v float64) Expr { return &Const{T: TFloat, F: v} }

// Str returns a string literal.
func Str(s string) Expr { return &Const{T: TString, S: s} }

// Ch returns a char literal.
func Ch(c byte) Expr { return &Const{T: TChar, I: int64(c)} }

// ParamRef returns a parameter reference of the given type.
func ParamRef(idx int, t Type) Expr {
	if idx < 0 {
		panic("expr: negative parameter index")
	}
	return &Param{Idx: idx, T: t}
}

// Bool returns a boolean literal.
func Bool(b bool) Expr {
	v := int64(0)
	if b {
		v = 1
	}
	return &Const{T: TBool, I: v}
}

func arithType(op ArithOp, l, r Type) Type {
	if !l.Numeric() || !r.Numeric() {
		panic(fmt.Sprintf("expr: %s %s %s is not numeric", l, op, r))
	}
	if l.Kind == KFloat || r.Kind == KFloat {
		return TFloat
	}
	ld, rd := l.Kind == KDecimal, r.Kind == KDecimal
	switch op {
	case OpAdd, OpSub:
		if ld || rd {
			s := l.Scale
			if r.Scale > s {
				s = r.Scale
			}
			return TDec(s)
		}
		return TInt
	case OpMul:
		if ld && rd {
			return TDec(l.Scale + r.Scale)
		}
		if ld {
			return TDec(l.Scale)
		}
		if rd {
			return TDec(r.Scale)
		}
		return TInt
	default: // OpDiv
		if ld && rd {
			return TFloat // ratio semantics, documented in DESIGN.md
		}
		if ld {
			return TDec(l.Scale)
		}
		if rd {
			return TFloat
		}
		return TInt
	}
}

// NewArith builds a checked arithmetic node.
func NewArith(op ArithOp, l, r Expr) Expr {
	return &Arith{Op: op, L: l, R: r, T: arithType(op, l.Type(), r.Type())}
}

// Add, Sub, Mul, Div are convenience constructors.
func Add(l, r Expr) Expr { return NewArith(OpAdd, l, r) }
func Sub(l, r Expr) Expr { return NewArith(OpSub, l, r) }
func Mul(l, r Expr) Expr { return NewArith(OpMul, l, r) }
func Div(l, r Expr) Expr { return NewArith(OpDiv, l, r) }

func comparable(l, r Type) bool {
	if l.Numeric() && r.Numeric() {
		return true
	}
	if l.Kind == r.Kind {
		return true
	}
	return false
}

// NewCmp builds a comparison.
func NewCmp(op CmpOp, l, r Expr) Expr {
	lt, rtt := l.Type(), r.Type()
	if !comparable(lt, rtt) {
		panic(fmt.Sprintf("expr: cannot compare %s %s %s", lt, op, rtt))
	}
	return &Cmp{Op: op, L: l, R: r}
}

// Eq etc. are convenience comparison constructors.
func Eq(l, r Expr) Expr { return NewCmp(CmpEq, l, r) }
func Ne(l, r Expr) Expr { return NewCmp(CmpNe, l, r) }
func Lt(l, r Expr) Expr { return NewCmp(CmpLt, l, r) }
func Le(l, r Expr) Expr { return NewCmp(CmpLe, l, r) }
func Gt(l, r Expr) Expr { return NewCmp(CmpGt, l, r) }
func Ge(l, r Expr) Expr { return NewCmp(CmpGe, l, r) }

// Between builds lo <= e AND e <= hi.
func Between(e, lo, hi Expr) Expr { return And(Ge(e, lo), Le(e, hi)) }

// And conjoins boolean expressions.
func And(args ...Expr) Expr {
	for _, a := range args {
		if a.Type().Kind != KBool {
			panic("expr: AND over non-boolean")
		}
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Logic{IsAnd: true, Args: args}
}

// Or disjoins boolean expressions.
func Or(args ...Expr) Expr {
	for _, a := range args {
		if a.Type().Kind != KBool {
			panic("expr: OR over non-boolean")
		}
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Logic{IsAnd: false, Args: args}
}

// Not negates a boolean.
func Not(e Expr) Expr {
	if e.Type().Kind != KBool {
		panic("expr: NOT over non-boolean")
	}
	return &NotExpr{Arg: e}
}

// Like builds a LIKE match.
func Like(arg Expr, pattern string) Expr {
	if arg.Type().Kind != KString {
		panic("expr: LIKE over non-string")
	}
	return &LikeExpr{Arg: arg, Pattern: pattern, Compiled: rt.CompileLike(pattern)}
}

// NotLike builds a NOT LIKE match.
func NotLike(arg Expr, pattern string) Expr {
	if arg.Type().Kind != KString {
		panic("expr: LIKE over non-string")
	}
	return &LikeExpr{Arg: arg, Pattern: pattern, Compiled: rt.CompileLike(pattern), Negate: true}
}

// In builds list membership over constants.
func In(arg Expr, vals ...Expr) Expr {
	list := make([]*Const, len(vals))
	for i, v := range vals {
		c, ok := v.(*Const)
		if !ok {
			panic("expr: IN list must be constants")
		}
		if c.T.Kind != arg.Type().Kind {
			panic(fmt.Sprintf("expr: IN list type %s vs argument %s", c.T, arg.Type()))
		}
		list[i] = c
	}
	return &InList{Arg: arg, List: list}
}

// Case builds CASE WHEN; all THEN arms and the ELSE must share a type.
func Case(whens []When, els Expr) Expr {
	if len(whens) == 0 {
		panic("expr: CASE without WHEN")
	}
	t := whens[0].Then.Type()
	for _, w := range whens {
		if w.Cond.Type().Kind != KBool {
			panic("expr: CASE condition not boolean")
		}
		if w.Then.Type() != t {
			panic(fmt.Sprintf("expr: CASE arms disagree: %s vs %s", w.Then.Type(), t))
		}
	}
	if els.Type() != t {
		panic(fmt.Sprintf("expr: CASE else %s vs arms %s", els.Type(), t))
	}
	return &CaseExpr{Whens: whens, Else: els, T: t}
}

// Year extracts the year of a date.
func Year(e Expr) Expr {
	if e.Type().Kind != KDate {
		panic("expr: YEAR over non-date")
	}
	return &YearExpr{Arg: e}
}

// Substr takes a fixed substring (1-based from).
func Substr(e Expr, from, n int) Expr {
	if e.Type().Kind != KString || from < 1 || n < 0 {
		panic("expr: bad SUBSTR")
	}
	return &SubstrExpr{Arg: e, From: from, Len: n}
}

// ToFloat converts a numeric to float.
func ToFloat(e Expr) Expr {
	if e.Type().Kind == KFloat {
		return e
	}
	if !e.Type().Numeric() && e.Type().Kind != KBool {
		panic("expr: ToFloat over " + e.Type().String())
	}
	return &CastExpr{Arg: e, T: TFloat}
}

// Rescale converts a decimal (or int) to a decimal of the given scale.
func Rescale(e Expr, scale int) Expr {
	t := e.Type()
	if t.Kind == KDecimal && t.Scale == scale {
		return e
	}
	if t.Kind != KDecimal && t.Kind != KInt {
		panic("expr: Rescale over " + t.String())
	}
	return &CastExpr{Arg: e, T: TDec(scale)}
}

// String renders an expression for diagnostics.
func String(e Expr) string {
	var sb strings.Builder
	format(&sb, e)
	return sb.String()
}

func format(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *ColRef:
		fmt.Fprintf(sb, "#%d", x.Idx)
	case *Const:
		switch x.T.Kind {
		case KString:
			fmt.Fprintf(sb, "%q", x.S)
		case KFloat:
			fmt.Fprintf(sb, "%g", x.F)
		default:
			fmt.Fprintf(sb, "%d", x.I)
		}
	case *Param:
		fmt.Fprintf(sb, "$%d", x.Idx+1)
	case *Arith:
		sb.WriteByte('(')
		format(sb, x.L)
		sb.WriteString(x.Op.String())
		format(sb, x.R)
		sb.WriteByte(')')
	case *Cmp:
		sb.WriteByte('(')
		format(sb, x.L)
		sb.WriteString(x.Op.String())
		format(sb, x.R)
		sb.WriteByte(')')
	case *Logic:
		op := " OR "
		if x.IsAnd {
			op = " AND "
		}
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(op)
			}
			format(sb, a)
		}
		sb.WriteByte(')')
	case *NotExpr:
		sb.WriteString("NOT ")
		format(sb, x.Arg)
	case *LikeExpr:
		format(sb, x.Arg)
		if x.Negate {
			sb.WriteString(" NOT")
		}
		fmt.Fprintf(sb, " LIKE %q", x.Pattern)
	case *InList:
		format(sb, x.Arg)
		sb.WriteString(" IN (...)")
	case *CaseExpr:
		sb.WriteString("CASE ... END")
	case *YearExpr:
		sb.WriteString("YEAR(")
		format(sb, x.Arg)
		sb.WriteByte(')')
	case *SubstrExpr:
		fmt.Fprintf(sb, "SUBSTR(")
		format(sb, x.Arg)
		fmt.Fprintf(sb, ",%d,%d)", x.From, x.Len)
	case *CastExpr:
		fmt.Fprintf(sb, "CAST(")
		format(sb, x.Arg)
		fmt.Fprintf(sb, " AS %s)", x.T)
	default:
		sb.WriteString("?")
	}
}
