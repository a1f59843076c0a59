package storage

import (
	"encoding/binary"
	"sort"
)

// Dict is an order-preserving dictionary over a String column: the
// distinct values sorted ascending, plus a dense uint32 code per row
// (code i ↔ Values[i]). Because codes preserve the value order, every
// comparison operator — not just equality — and min/max zone maps work
// directly on codes; the code generator rewrites sargable string
// predicates into integer comparisons against them.
//
// The raw (offset, length) vector and heap stay untouched: output
// decoding and the Volcano/vector baselines read the original bytes, so
// dictionary-accelerated plans are bit-identical to raw ones.
type Dict struct {
	// Values are the distinct strings in ascending order; the code of a
	// value is its index.
	Values []string

	codes []byte // 4-byte little-endian code per row
}

// Card returns the number of distinct values.
func (d *Dict) Card() int { return len(d.Values) }

// Codes returns the raw code vector for segment registration (4 bytes
// per row, little-endian uint32).
func (d *Dict) Codes() []byte { return d.codes }

// CodeAt returns the code of row i.
func (d *Dict) CodeAt(i int) uint32 {
	return binary.LittleEndian.Uint32(d.codes[i*4:])
}

// Value returns the string of code i.
func (d *Dict) Value(i int) string { return d.Values[i] }

// Code returns the code of s and whether s occurs in the dictionary.
func (d *Dict) Code(s string) (int64, bool) {
	i := sort.SearchStrings(d.Values, s)
	if i < len(d.Values) && d.Values[i] == s {
		return int64(i), true
	}
	return 0, false
}

// LowerBound returns the first code whose value is >= s (len(Values)
// when every value is smaller). With Code it gives the code range of any
// ordering predicate: col < s ⇔ code < LowerBound(s).
func (d *Dict) LowerBound(s string) int64 {
	return int64(sort.SearchStrings(d.Values, s))
}

// BuildDict builds (or rebuilds) the order-preserving dictionary of a
// String column and seals the column: later appends panic. Non-string
// columns record nothing: Char columns are already single-byte integers
// with full zone-map support. Building is part of load, after the bulk
// appends.
func (c *Column) BuildDict() {
	c.sealed = true
	if c.Kind != String {
		return
	}
	distinct := make(map[string]struct{}, c.rows/4+1)
	for i := 0; i < c.rows; i++ {
		distinct[c.StringAt(i)] = struct{}{}
	}
	values := make([]string, 0, len(distinct))
	for s := range distinct {
		values = append(values, s)
	}
	sort.Strings(values)
	code := make(map[string]uint32, len(values))
	for i, s := range values {
		code[s] = uint32(i)
	}
	d := &Dict{Values: values, codes: make([]byte, 4*c.rows)}
	for i := 0; i < c.rows; i++ {
		binary.LittleEndian.PutUint32(d.codes[i*4:], code[c.StringAt(i)])
	}
	c.dict = d
}

// Dict returns the column's dictionary, or nil when none was built or the
// column is not a String column.
func (c *Column) Dict() *Dict { return c.dict }

// BuildDicts builds dictionaries for every String column of the table.
func (t *Table) BuildDicts() {
	for _, c := range t.Cols {
		c.BuildDict()
	}
}

// BuildDicts builds dictionaries for every table in the catalog.
func (cat *Catalog) BuildDicts() {
	for _, name := range cat.order {
		cat.tables[name].BuildDicts()
	}
}
