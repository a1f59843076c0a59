// Package volcano is the tuple-at-a-time iterator engine, the PostgreSQL
// stand-in of the paper's Table I/II baselines: every operator implements
// a Next() returning one row, every expression is interpreted per tuple.
// It shares plans, expressions and trap semantics with the compiling
// engine, which also makes it the correctness oracle in the test suite.
package volcano

import (
	"fmt"
	"math"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/rt/sink"
	"aqe/internal/storage"
)

// Run executes the plan and returns the result rows.
func Run(root plan.Node) (rows [][]expr.Datum, err error) {
	err = rt.CatchTrap(func() {
		it := build(root)
		it.open()
		for {
			row, ok := it.next()
			if !ok {
				break
			}
			rows = append(rows, row)
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

type iter interface {
	open()
	next() ([]expr.Datum, bool)
}

func build(n plan.Node) iter {
	switch x := n.(type) {
	case *plan.Scan:
		return &scanIter{scan: x}
	case *plan.Filter:
		return &filterIter{in: build(x.Input), cond: x.Cond}
	case *plan.Project:
		return &projectIter{in: build(x.Input), exprs: x.Exprs}
	case *plan.Join:
		if x.Kind.BuildSide() {
			return &markIter{j: x, buildIn: build(x.Build), probeIn: build(x.Probe)}
		}
		return &joinIter{j: x, buildIn: build(x.Build), probeIn: build(x.Probe)}
	case *plan.GroupBy:
		return &groupIter{g: x, in: build(x.Input)}
	case *plan.OrderBy:
		return &orderIter{o: x, in: build(x.Input)}
	}
	panic(fmt.Sprintf("volcano: unsupported node %T", n))
}

// ReadRow decodes row i of a table restricted to the given columns.
func ReadRow(t *storage.Table, cols []string, i int, out []expr.Datum) []expr.Datum {
	out = out[:0]
	for _, name := range cols {
		c := t.MustCol(name)
		switch c.Kind {
		case storage.Float64:
			out = append(out, expr.Datum{F: c.Float64At(i)})
		case storage.Char:
			out = append(out, expr.Datum{I: int64(c.CharAt(i))})
		case storage.String:
			out = append(out, expr.Datum{S: c.StringAt(i)})
		default:
			out = append(out, expr.Datum{I: c.Int64At(i)})
		}
	}
	return out
}

type scanIter struct {
	scan *plan.Scan
	pos  int
	buf  []expr.Datum
}

func (s *scanIter) open() { s.pos = 0 }

func (s *scanIter) next() ([]expr.Datum, bool) {
	n := s.scan.Table.Rows()
	for s.pos < n {
		s.buf = ReadRow(s.scan.Table, s.scan.Cols, s.pos, s.buf)
		s.pos++
		if s.scan.Filter == nil || expr.Eval(s.scan.Filter, s.buf).Bool() {
			row := make([]expr.Datum, len(s.buf))
			copy(row, s.buf)
			return row, true
		}
	}
	return nil, false
}

type filterIter struct {
	in   iter
	cond expr.Expr
}

func (f *filterIter) open() { f.in.open() }

func (f *filterIter) next() ([]expr.Datum, bool) {
	for {
		row, ok := f.in.next()
		if !ok {
			return nil, false
		}
		if expr.Eval(f.cond, row).Bool() {
			return row, true
		}
	}
}

type projectIter struct {
	in    iter
	exprs []expr.Expr
}

func (p *projectIter) open() { p.in.open() }

func (p *projectIter) next() ([]expr.Datum, bool) {
	row, ok := p.in.next()
	if !ok {
		return nil, false
	}
	out := make([]expr.Datum, len(p.exprs))
	for i, e := range p.exprs {
		out[i] = expr.Eval(e, row)
	}
	return out, true
}

// joinKey is a fixed-arity integer join key (TPC-H joins use at most 2).
type joinKey [4]int64

func keyOf(keys []expr.Expr, row []expr.Datum) joinKey {
	var k joinKey
	for i, e := range keys {
		k[i] = expr.Eval(e, row).I
	}
	return k
}

type joinIter struct {
	j       *plan.Join
	buildIn iter
	probeIn iter

	ht      map[joinKey][][]expr.Datum
	probe   []expr.Datum
	matches [][]expr.Datum
	mi      int
}

func (j *joinIter) open() {
	j.buildIn.open()
	j.probeIn.open()
	j.ht = make(map[joinKey][][]expr.Datum)
	for {
		row, ok := j.buildIn.next()
		if !ok {
			break
		}
		k := keyOf(j.j.BuildKeys, row)
		j.ht[k] = append(j.ht[k], row)
	}
}

// residualOK evaluates the join's residual over [probe ++ build].
func residualOK(j *plan.Join, probe, build []expr.Datum) bool {
	if j.Residual == nil {
		return true
	}
	combined := append(append([]expr.Datum{}, probe...), build...)
	return expr.Eval(j.Residual, combined).Bool()
}

func (j *joinIter) next() ([]expr.Datum, bool) {
	for {
		// Drain pending inner-join matches.
		if j.mi < len(j.matches) {
			b := j.matches[j.mi]
			j.mi++
			out := append([]expr.Datum{}, j.probe...)
			for _, idx := range j.j.PayloadIdx {
				out = append(out, b[idx])
			}
			return out, true
		}
		probe, ok := j.probeIn.next()
		if !ok {
			return nil, false
		}
		cands := j.ht[keyOf(j.j.ProbeKeys, probe)]
		var matched [][]expr.Datum
		for _, b := range cands {
			if residualOK(j.j, probe, b) {
				matched = append(matched, b)
			}
		}
		switch j.j.Kind {
		case plan.Inner:
			j.probe = probe
			j.matches = matched
			j.mi = 0
		case plan.Semi:
			if len(matched) > 0 {
				return probe, true
			}
		case plan.Anti:
			if len(matched) == 0 {
				return probe, true
			}
		case plan.OuterCount:
			out := append(append([]expr.Datum{}, probe...),
				expr.Datum{I: int64(len(matched))})
			return out, true
		}
	}
}

// markIter is a build-side join (RightSemi, RightAnti, RightCount): it
// counts the residual-passing matches of every build row over the whole
// probe input, then emits build rows in build order — the matched ones, the
// unmatched ones, or every one extended with its count.
type markIter struct {
	j       *plan.Join
	buildIn iter
	probeIn iter

	rows   [][]expr.Datum
	counts []int64
	pos    int
}

func (m *markIter) open() {
	m.buildIn.open()
	m.probeIn.open()
	ht := make(map[joinKey][]int)
	for {
		row, ok := m.buildIn.next()
		if !ok {
			break
		}
		k := keyOf(m.j.BuildKeys, row)
		ht[k] = append(ht[k], len(m.rows))
		m.rows = append(m.rows, row)
	}
	m.counts = make([]int64, len(m.rows))
	for {
		probe, ok := m.probeIn.next()
		if !ok {
			break
		}
		for _, i := range ht[keyOf(m.j.ProbeKeys, probe)] {
			if residualOK(m.j, probe, m.rows[i]) {
				m.counts[i]++
			}
		}
	}
}

func (m *markIter) next() ([]expr.Datum, bool) {
	for m.pos < len(m.rows) {
		row, n := m.rows[m.pos], m.counts[m.pos]
		m.pos++
		switch m.j.Kind {
		case plan.RightSemi:
			if n > 0 {
				return row, true
			}
		case plan.RightAnti:
			if n == 0 {
				return row, true
			}
		case plan.RightCount:
			return append(append([]expr.Datum{}, row...), expr.Datum{I: n}), true
		}
	}
	return nil, false
}

type groupState struct {
	key  []expr.Datum
	aggs []uint64
}

type groupIter struct {
	g  *plan.GroupBy
	in iter

	groups []*groupState
	pos    int
}

// AggSlots returns the flattened aggregate slot kinds: Avg contributes a
// sum slot and a count slot. Shared with the column-at-a-time engine.
func AggSlots(aggs []plan.AggExpr) []rt.AggKind {
	var out []rt.AggKind
	for _, a := range aggs {
		switch a.Func {
		case plan.Sum:
			if a.Arg.Type().Kind == expr.KFloat {
				out = append(out, rt.AggSumF)
			} else {
				out = append(out, rt.AggSum)
			}
		case plan.Min:
			if a.Arg.Type().Kind == expr.KFloat {
				out = append(out, rt.AggMinF)
			} else {
				out = append(out, rt.AggMin)
			}
		case plan.Max:
			if a.Arg.Type().Kind == expr.KFloat {
				out = append(out, rt.AggMaxF)
			} else {
				out = append(out, rt.AggMax)
			}
		case plan.Count, plan.CountStar:
			out = append(out, rt.AggCount)
		case plan.Avg:
			if a.Arg.Type().Kind == expr.KFloat {
				out = append(out, rt.AggSumF, rt.AggCount)
			} else {
				out = append(out, rt.AggSum, rt.AggCount)
			}
		}
	}
	return out
}

func (g *groupIter) open() {
	g.in.open()
	slots := AggSlots(g.g.Aggs)
	index := make(map[string]*groupState)
	var keybuf []byte
	for {
		row, ok := g.in.next()
		if !ok {
			break
		}
		keybuf = keybuf[:0]
		keyVals := make([]expr.Datum, len(g.g.Keys))
		for i, k := range g.g.Keys {
			d := expr.Eval(k, row)
			keyVals[i] = d
			if k.Type().Kind == expr.KString {
				keybuf = append(keybuf, d.S...)
				keybuf = append(keybuf, 0xFF)
			} else {
				for b := 0; b < 8; b++ {
					keybuf = append(keybuf, byte(uint64(d.I)>>(8*b)))
				}
			}
		}
		st, ok2 := index[string(keybuf)]
		if !ok2 {
			st = &groupState{key: keyVals, aggs: make([]uint64, len(slots))}
			for i, k := range slots {
				st.aggs[i] = k.Init()
			}
			index[string(keybuf)] = st
			g.groups = append(g.groups, st)
		}
		slot := 0
		for _, a := range g.g.Aggs {
			switch a.Func {
			case plan.CountStar, plan.Count:
				st.aggs[slot] = rt.AggCount.Combine(st.aggs[slot], 1)
				slot++
			case plan.Avg:
				d := expr.Eval(a.Arg, row)
				st.aggs[slot] = slots[slot].Combine(st.aggs[slot], DatumBits(d, a.Arg.Type()))
				st.aggs[slot+1] = rt.AggCount.Combine(st.aggs[slot+1], 1)
				slot += 2
			default:
				d := expr.Eval(a.Arg, row)
				st.aggs[slot] = slots[slot].Combine(st.aggs[slot], DatumBits(d, a.Arg.Type()))
				slot++
			}
		}
	}
	// Scalar aggregation produces exactly one row even over empty input.
	if len(g.g.Keys) == 0 && len(g.groups) == 0 {
		st := &groupState{aggs: make([]uint64, len(slots))}
		for i, k := range slots {
			st.aggs[i] = k.Init()
		}
		g.groups = append(g.groups, st)
	}
}

// DatumBits returns the raw aggregate-input bits of a datum.
func DatumBits(d expr.Datum, t expr.Type) uint64 {
	if t.Kind == expr.KFloat {
		return floatBits(d.F)
	}
	return uint64(d.I)
}

func (g *groupIter) next() ([]expr.Datum, bool) {
	if g.pos >= len(g.groups) {
		return nil, false
	}
	st := g.groups[g.pos]
	g.pos++
	out := append([]expr.Datum{}, st.key...)
	slot := 0
	for _, a := range g.g.Aggs {
		switch a.Func {
		case plan.Avg:
			sum, cnt := st.aggs[slot], int64(st.aggs[slot+1])
			slot += 2
			var f float64
			if cnt != 0 {
				if a.Arg.Type().Kind == expr.KFloat {
					f = floatFromBits(sum) / float64(cnt)
				} else {
					f = DecToFloat(int64(sum), a.Arg.Type()) / float64(cnt)
				}
			}
			out = append(out, expr.Datum{F: f})
		default:
			v := st.aggs[slot]
			slot++
			isFloat := a.Arg != nil && a.Arg.Type().Kind == expr.KFloat
			if isFloat && (a.Func == plan.Sum || a.Func == plan.Min || a.Func == plan.Max) {
				out = append(out, expr.Datum{F: floatFromBits(v)})
			} else {
				out = append(out, expr.Datum{I: int64(v)})
			}
		}
	}
	return out, true
}

type orderIter struct {
	o    *plan.OrderBy
	in   iter
	rows [][]expr.Datum
	pos  int
}

func (o *orderIter) open() {
	o.in.open()
	for {
		row, ok := o.in.next()
		if !ok {
			break
		}
		o.rows = append(o.rows, row)
	}
	if o.o.Limit >= 0 {
		o.rows = sink.TopK(o.rows, o.o.Keys, o.o.Limit)
		if len(o.rows) > o.o.Limit {
			o.rows = o.rows[:o.o.Limit]
		}
		return
	}
	sink.SortRows(o.rows, o.o.Keys)
}

func (o *orderIter) next() ([]expr.Datum, bool) {
	if o.pos >= len(o.rows) {
		return nil, false
	}
	r := o.rows[o.pos]
	o.pos++
	return r, true
}

// DecToFloat converts a scaled decimal to float.
func DecToFloat(v int64, t expr.Type) float64 {
	f := float64(v)
	if t.Kind == expr.KDecimal && t.Scale > 0 {
		// One division by the whole scale factor, not one per digit: the
		// compiled engines divide once, and repeated division differs in
		// the last ulp (visible in rounded differential comparisons).
		p := int64(1)
		for i := 0; i < t.Scale; i++ {
			p *= 10
		}
		f /= float64(p)
	}
	return f
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
