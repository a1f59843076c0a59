package storage

import "math"

// DefaultZoneBlockRows is the default zone-map block size: per-block
// min/max statistics are kept for every DefaultZoneBlockRows consecutive
// rows. 64k rows matches the engine's largest morsel, so a fully-pruned
// block removes at least one dispatched kernel invocation.
const DefaultZoneBlockRows = 65536

// ZoneMap holds small materialized aggregates — per-block min/max — over a
// fixed-width column (Int64, Decimal, Date, Float64, Char) or over the
// dictionary codes of a dictionary-encoded String column. The engine
// consults it to skip morsels whose block statistics prove that a scan's
// sargable predicate rejects every contained row; String columns without
// a dictionary carry no zone map.
//
// Integer-representable kinds (Int64, Decimal, Date, Char) populate
// MinI/MaxI with the raw stored values (Decimal: scaled integers, Date:
// day numbers, Char: the byte value zero-extended — exactly the value the
// generated comparison code sees). String columns with a dictionary
// populate MinI/MaxI with per-block min/max codes: codes preserve the
// string order, so the same integer block test applies to the code
// thresholds the code generator derives from the dictionary (both
// describe a sealed column, so codegen-time and build-time codes agree).
// Float64 columns populate MinF/MaxF, ignoring NaNs: a NaN row can never
// satisfy a comparison predicate, so excluding it from the statistics
// keeps pruning conservative. An all-NaN block gets the empty range
// [+Inf, -Inf], which no predicate matches — correctly prunable.
type ZoneMap struct {
	// BlockRows is the block size the map was built with.
	BlockRows int
	// Rows is the number of rows covered: the whole column, which the
	// build seals.
	Rows int

	MinI, MaxI []int64
	MinF, MaxF []float64
}

// Blocks returns the number of blocks covered (the last may be partial).
func (zm *ZoneMap) Blocks() int {
	if zm.BlockRows <= 0 {
		return 0
	}
	return (zm.Rows + zm.BlockRows - 1) / zm.BlockRows
}

// BuildZoneMap computes per-block min/max statistics with the given block
// size (<= 0 selects DefaultZoneBlockRows) and seals the column: later
// appends panic. A String column is covered through its dictionary codes
// when a dictionary exists (build dictionaries before zone maps); without
// one it has no orderable fixed-width representation and records nothing.
// Rebuilding (with another block size) is allowed.
func (c *Column) BuildZoneMap(blockRows int) {
	c.sealed = true
	dict := c.dict
	if c.Kind == String && dict == nil {
		return
	}
	if blockRows <= 0 {
		blockRows = DefaultZoneBlockRows
	}
	zm := &ZoneMap{BlockRows: blockRows, Rows: c.rows}
	nb := zm.Blocks()
	if c.Kind == Float64 {
		zm.MinF = make([]float64, nb)
		zm.MaxF = make([]float64, nb)
		for b := 0; b < nb; b++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			end := (b + 1) * blockRows
			if end > c.rows {
				end = c.rows
			}
			for i := b * blockRows; i < end; i++ {
				v := c.Float64At(i)
				if math.IsNaN(v) {
					continue
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			zm.MinF[b], zm.MaxF[b] = lo, hi
		}
	} else {
		zm.MinI = make([]int64, nb)
		zm.MaxI = make([]int64, nb)
		for b := 0; b < nb; b++ {
			lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
			end := (b + 1) * blockRows
			if end > c.rows {
				end = c.rows
			}
			for i := b * blockRows; i < end; i++ {
				var v int64
				switch {
				case dict != nil:
					v = int64(dict.CodeAt(i))
				case c.Kind == Char:
					v = int64(c.CharAt(i))
				default:
					v = c.Int64At(i)
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			zm.MinI[b], zm.MaxI[b] = lo, hi
		}
	}
	c.zone = zm
}

// Zone returns the column's zone map, or nil when none was built or the
// column is a String column without a dictionary.
func (c *Column) Zone() *ZoneMap { return c.zone }

// BuildZoneMaps builds (or rebuilds) zone maps for every fixed-width
// column of the table. blockRows <= 0 selects DefaultZoneBlockRows.
func (t *Table) BuildZoneMaps(blockRows int) {
	for _, c := range t.Cols {
		c.BuildZoneMap(blockRows)
	}
}

// BuildZoneMaps builds zone maps for every table in the catalog.
func (cat *Catalog) BuildZoneMaps(blockRows int) {
	for _, name := range cat.order {
		cat.tables[name].BuildZoneMaps(blockRows)
	}
}
