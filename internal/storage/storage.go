// Package storage implements the columnar in-memory table storage the
// query engine scans: fixed-width little-endian column vectors (readable
// directly by generated code through the segmented address space), string
// columns as (offset, length) pairs into a per-column heap, and a catalog.
//
// Types follow TPC-H's needs: 64-bit integers, fixed-point decimals
// (scaled integers), dates (days since the Unix epoch), 64-bit floats,
// single characters and variable-length strings. TPC-H data contains no
// NULLs, so columns carry no null bitmap (documented in DESIGN.md).
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Kind is a column data type.
type Kind uint8

// Column kinds.
const (
	Int64 Kind = iota
	Decimal
	Date
	Float64
	Char
	String
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Decimal:
		return "decimal"
	case Date:
		return "date"
	case Float64:
		return "float64"
	case Char:
		return "char"
	case String:
		return "string"
	}
	return "kind?"
}

// Width returns the fixed row width of the column kind in bytes. String
// rows store (offset uint64, length uint64) into the column's heap.
func (k Kind) Width() int {
	switch k {
	case Char:
		return 1
	case String:
		return 16
	default:
		return 8
	}
}

// Column is a typed column vector.
type Column struct {
	Name string
	Kind Kind
	// Scale is the number of decimal digits for Decimal columns (TPC-H
	// money columns use 2: values are stored as cents).
	Scale int

	data []byte
	heap []byte // string heap (String kind only)
	rows int
	zone *ZoneMap // per-block min/max statistics (zonemap.go)
	dict *Dict    // order-preserving string dictionary (dict.go)
	// sealed is set by the first statistics build: the zone map and
	// dictionary describe every row, so the column takes no more appends.
	sealed bool
}

// NewColumn creates an empty column.
func NewColumn(name string, kind Kind) *Column {
	scale := 0
	if kind == Decimal {
		scale = 2
	}
	return &Column{Name: name, Kind: kind, Scale: scale}
}

// Rows returns the number of rows.
func (c *Column) Rows() int { return c.rows }

// Data returns the raw fixed-width vector for segment registration.
func (c *Column) Data() []byte { return c.data }

// Heap returns the string heap for segment registration (nil for
// non-string columns).
func (c *Column) Heap() []byte { return c.heap }

// Reserve pre-allocates capacity for rows additional rows and — for
// String columns — heapBytes additional heap bytes, so bulk loads append
// without incremental growth copies.
func (c *Column) Reserve(rows, heapBytes int) {
	if need := len(c.data) + rows*c.Kind.Width(); cap(c.data) < need {
		nd := make([]byte, len(c.data), need)
		copy(nd, c.data)
		c.data = nd
	}
	if heapBytes > 0 {
		if need := len(c.heap) + heapBytes; cap(c.heap) < need {
			nh := make([]byte, len(c.heap), need)
			copy(nh, c.heap)
			c.heap = nh
		}
	}
}

// mustBeOpen panics when the column is sealed: appending would leave the
// zone map and dictionary describing fewer rows than the column holds.
func (c *Column) mustBeOpen() {
	if c.sealed {
		panic(fmt.Sprintf("storage: append to column %s after its statistics were built", c.Name))
	}
}

// AppendInt64 appends an integer (Int64, Decimal or Date columns).
func (c *Column) AppendInt64(v int64) {
	c.mustBeOpen()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	c.data = append(c.data, buf[:]...)
	c.rows++
}

// AppendFloat64 appends a float.
func (c *Column) AppendFloat64(v float64) {
	c.mustBeOpen()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	c.data = append(c.data, buf[:]...)
	c.rows++
}

// AppendChar appends a one-byte character.
func (c *Column) AppendChar(ch byte) {
	c.mustBeOpen()
	c.data = append(c.data, ch)
	c.rows++
}

// AppendString appends a string to the heap and its reference to the
// vector.
func (c *Column) AppendString(s string) {
	c.mustBeOpen()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(c.heap)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(s)))
	c.heap = append(c.heap, s...)
	c.data = append(c.data, buf[:]...)
	c.rows++
}

// Int64At returns the integer value at row i.
func (c *Column) Int64At(i int) int64 {
	return int64(binary.LittleEndian.Uint64(c.data[i*8:]))
}

// Float64At returns the float value at row i.
func (c *Column) Float64At(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(c.data[i*8:]))
}

// CharAt returns the character at row i.
func (c *Column) CharAt(i int) byte { return c.data[i] }

// StringAt returns the string at row i.
func (c *Column) StringAt(i int) string {
	off := binary.LittleEndian.Uint64(c.data[i*16:])
	n := binary.LittleEndian.Uint64(c.data[i*16+8:])
	return string(c.heap[off : off+n])
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name   string
	Cols   []*Column
	byName map[string]int
}

// NewTable creates a table with the given columns.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		t.byName[c.Name] = i
	}
	return t
}

// Rows returns the row count (0 for a table with no columns).
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Rows()
}

// Col returns the named column or nil.
func (t *Table) Col(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.Cols[i]
	}
	return nil
}

// MustCol returns the named column, panicking if absent — plan construction
// errors are programming errors, not runtime conditions.
func (t *Table) MustCol(name string) *Column {
	c := t.Col(name)
	if c == nil {
		panic(fmt.Sprintf("storage: table %s has no column %s", t.Name, name))
	}
	return c
}

// Check validates that all columns have equal length.
func (t *Table) Check() error {
	for _, c := range t.Cols {
		if c.Rows() != t.Rows() {
			return fmt.Errorf("storage: %s.%s has %d rows, table has %d",
				t.Name, c.Name, c.Rows(), t.Rows())
		}
	}
	return nil
}

// Catalog maps table names to tables.
type Catalog struct {
	tables map[string]*Table
	order  []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Add registers a table, replacing any previous table of the same name.
func (cat *Catalog) Add(t *Table) {
	if _, ok := cat.tables[t.Name]; !ok {
		cat.order = append(cat.order, t.Name)
	}
	cat.tables[t.Name] = t
}

// Table returns the named table or nil.
func (cat *Catalog) Table(name string) *Table { return cat.tables[name] }

// Names returns the table names in registration order.
func (cat *Catalog) Names() []string { return append([]string(nil), cat.order...) }

// Epoch is the date origin: days are counted from 1970-01-01.
var Epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DaysFromDate converts a civil date to days since the epoch.
func DaysFromDate(year, month, day int) int64 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(Epoch).Hours() / 24)
}

// ParseDate parses "YYYY-MM-DD" into days since the epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, err
	}
	return int64(t.Sub(Epoch).Hours() / 24), nil
}

// MustParseDate parses "YYYY-MM-DD" into days since the epoch.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic("storage: bad date " + s)
	}
	return d
}

// YearOf returns the calendar year of a date value.
func YearOf(days int64) int64 {
	return int64(Epoch.AddDate(0, 0, int(days)).Year())
}
