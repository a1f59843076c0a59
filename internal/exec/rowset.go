package exec

import (
	"encoding/binary"
	"math"
	"strconv"
	"unicode/utf8"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/rt/sink"
	"aqe/internal/storage"
)

// RowSet is a query result held where the final pipeline wrote it: runs
// of fixed-width output records inside the per-worker arenas of the
// query's rt.Memory, plus — after an ORDER BY — a permutation over them.
// It is the one reader of the output-record layout (Cell); boxed rows
// (Result.Rows), stage tables (Result.ToTable), the sorter and the wire
// encoders are all consumers of it.
//
// A RowSet pins the query's whole address space (arenas, hash tables)
// for as long as it, or any Rows window or cell string taken from it, is
// reachable. It is not safe for concurrent use.
type RowSet struct {
	Cols  []string
	Types []expr.Type

	mem     *rt.Memory
	offs    []int // record offset of each column's slot
	rowSize int

	// spans are the record runs collected so far, in collection order —
	// the result order unless perm is set.
	spans [][]byte
	n     int
	// perm lists the result's records in ORDER BY order, each as
	// span index << 32 | byte offset within the span.
	perm []uint64
}

func newRowSet(mem *rt.Memory, cq *codegen.Query) *RowSet {
	rs := &RowSet{mem: mem, rowSize: cq.Output.RowSize}
	for _, c := range cq.Output.Cols {
		rs.Cols = append(rs.Cols, c.Name)
		rs.Types = append(rs.Types, c.T)
		rs.offs = append(rs.offs, c.Off)
	}
	return rs
}

// Len returns the number of result rows.
func (rs *RowSet) Len() int { return rs.n }

// Cell reads column c of an output record: the 8-byte slot as stored
// (integers, decimals, dates, chars and bools as their int64, floats as
// IEEE bits) and, for a string column — whose slot holds the (address,
// length) of bytes elsewhere in the query's memory — those bytes, in
// place. This is the only code that knows the record layout.
func (rs *RowSet) Cell(rec []byte, c int) (raw uint64, str []byte) {
	off := rs.offs[c]
	raw = binary.LittleEndian.Uint64(rec[off:])
	if rs.Types[c].Kind == expr.KString {
		str = rs.mem.Bytes(raw, int(binary.LittleEndian.Uint64(rec[off+8:])))
	}
	return raw, str
}

// datum boxes column c of a record.
func (rs *RowSet) datum(rec []byte, c int) expr.Datum {
	raw, str := rs.Cell(rec, c)
	switch rs.Types[c].Kind {
	case expr.KFloat:
		return expr.Datum{F: math.Float64frombits(raw)}
	case expr.KString:
		return expr.Datum{S: string(str)}
	}
	return expr.Datum{I: int64(raw)}
}

// Rows is an ordered window of a RowSet's records: what a consumer is
// handed, and how it walks them. The window stays valid for as long as it
// is referenced (it pins the RowSet).
type Rows struct {
	rs   *RowSet
	recs []byte   // contiguous records, or
	perm []uint64 // record positions in result order
}

// Set returns the RowSet the window belongs to (schema, Cell).
func (r Rows) Set() *RowSet { return r.rs }

// Len returns the number of rows in the window.
func (r Rows) Len() int {
	if r.perm != nil {
		return len(r.perm)
	}
	return len(r.recs) / r.rs.rowSize
}

// Rec returns the i-th record of the window, to be read with Cell.
func (r Rows) Rec(i int) []byte {
	size := r.rs.rowSize
	if r.perm != nil {
		p := r.perm[i]
		return r.rs.spans[p>>32][uint32(p):][:size]
	}
	return r.recs[i*size:][:size]
}

// Each hands fn the result as consecutive windows, in result order.
func (rs *RowSet) Each(fn func(Rows) error) error {
	if rs.perm != nil {
		if len(rs.perm) == 0 {
			return nil
		}
		return fn(Rows{rs: rs, perm: rs.perm})
	}
	for _, span := range rs.spans {
		if err := fn(Rows{rs: rs, recs: span}); err != nil {
			return err
		}
	}
	return nil
}

// add appends a run of records to the result.
func (rs *RowSet) add(recs []byte) {
	rs.spans = append(rs.spans, recs)
	rs.n += len(recs) / rs.rowSize
}

// Datums boxes the result into rows of expr.Datum (string cells are
// copied out, so the rows do not pin the RowSet).
func (rs *RowSet) Datums() [][]expr.Datum {
	nc := len(rs.Types)
	rows := make([][]expr.Datum, 0, rs.n)
	cells := make([]expr.Datum, rs.n*nc)
	rs.Each(func(w Rows) error {
		for i, n := 0, w.Len(); i < n; i++ {
			rec := w.Rec(i)
			row := cells[:nc:nc]
			cells = cells[nc:]
			for c := range row {
				row[c] = rs.datum(rec, c)
			}
			rows = append(rows, row)
		}
		return nil
	})
	return rows
}

// appendTo appends the result to cols, one storage column per result
// column, straight from the records.
func (rs *RowSet) appendTo(cols []*storage.Column) {
	rs.Each(func(w Rows) error {
		for i, n := 0, w.Len(); i < n; i++ {
			rec := w.Rec(i)
			for c, col := range cols {
				raw, str := rs.Cell(rec, c)
				switch col.Kind {
				case storage.Float64:
					col.AppendFloat64(math.Float64frombits(raw))
				case storage.Char:
					col.AppendChar(byte(raw))
				case storage.String:
					col.AppendString(string(str))
				default:
					col.AppendInt64(int64(raw))
				}
			}
		}
		return nil
	})
}

// sort orders the result by keys (keeping only the first limit rows when
// limit >= 0) without moving or boxing a record: every key is normalized
// once per row into a machine word (sink.Keys) — a plain column reference
// straight from the record's slot, any other expression evaluated over a
// scratch boxed row — and a permutation is stable-sorted over the words.
// A trap raised by a key expression is returned as the error.
func (rs *RowSet) sort(keys []plan.SortKey, limit int) error {
	n := rs.n
	ks := sink.NewKeys(keys, n)
	offs := make([]int, len(keys)) // the key column's slot, or -1 for an expression
	var exprs []int
	for j, k := range keys {
		offs[j] = -1
		if cr, ok := k.E.(*expr.ColRef); ok {
			offs[j] = rs.offs[cr.Idx]
		} else {
			exprs = append(exprs, j)
		}
	}
	pos := make([]uint64, 0, n)
	i := 0
	for si, span := range rs.spans {
		i = ks.PutRecords(i, span, rs.rowSize, offs, rs.mem.Bytes)
		for off := 0; off < len(span); off += rs.rowSize {
			pos = append(pos, uint64(si)<<32|uint64(off))
		}
	}
	if len(exprs) > 0 {
		scratch := make([]expr.Datum, len(rs.Types))
		err := rt.CatchTrap(func() {
			i := 0
			rs.Each(func(w Rows) error {
				for r, n := 0, w.Len(); r < n; r++ {
					rec := w.Rec(r)
					for c := range scratch {
						scratch[c] = rs.datum(rec, c)
					}
					for _, j := range exprs {
						ks.PutDatum(i, j, expr.Eval(keys[j].E, scratch))
					}
					i++
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}
	var order []int32
	if limit >= 0 {
		order = sink.TopKPerm(ks, n, limit)
	} else {
		order = sink.SortPerm(ks, n)
	}
	rs.perm = make([]uint64, len(order))
	for i, o := range order {
		rs.perm[i] = pos[o]
	}
	rs.n = len(order)
	return nil
}

// AppendFormat appends the display form of a non-string value given as
// its 8-byte output slot (see RowSet.Cell) — the text both wire protocols
// and the shell print. String cells have no slot form: callers append
// their bytes directly.
func AppendFormat(dst []byte, raw uint64, t expr.Type) []byte {
	switch t.Kind {
	case expr.KFloat:
		return strconv.AppendFloat(dst, math.Float64frombits(raw), 'f', 4, 64)
	case expr.KDecimal:
		return storage.AppendDecimal(dst, int64(raw), t.Scale)
	case expr.KDate:
		return storage.AppendDate(dst, int64(raw))
	case expr.KChar:
		return utf8.AppendRune(dst, rune(byte(raw)))
	case expr.KBool:
		if raw != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case expr.KString:
		panic("exec: AppendFormat of a string slot")
	}
	return strconv.AppendInt(dst, int64(raw), 10)
}

// Format renders a datum for display.
func Format(d expr.Datum, t expr.Type) string {
	switch t.Kind {
	case expr.KString:
		return d.S
	case expr.KFloat:
		return string(AppendFormat(nil, math.Float64bits(d.F), t))
	}
	return string(AppendFormat(nil, uint64(d.I), t))
}
