package storage

// ColStats summarizes a column for the optimizer: global min/max derived
// from the zone map's per-block statistics and an estimated distinct
// count. The statistics come "for free" — they are by-products of the
// structures the engine already maintains for pruning (zone maps) and
// string compression (dictionaries); no separate ANALYZE pass exists.
//
// For String columns the integer domain is the dictionary-code domain
// (codes preserve value order), and NDV is the exact dictionary
// cardinality. For the other integer-representable kinds (Int64, Decimal,
// Date, Char) NDV is the uniform-domain heuristic min(rows, max-min+1) —
// exact for dense key columns, an upper bound otherwise. Float columns
// report min/max only.
type ColStats struct {
	Rows int
	// HasRange reports that MinI/MaxI (or MinF/MaxF for Float64 columns)
	// hold the column's global value range.
	HasRange bool
	Float    bool
	MinI     int64
	MaxI     int64
	MinF     float64
	MaxF     float64
	// NDV is the estimated number of distinct values (0 = unknown).
	NDV int64
}

// Stats derives optimizer statistics from the column's zone map and
// dictionary. A column without a zone map yields Rows only: selectivity
// estimation falls back to defaults, mirroring how pruning degrades
// without the map.
func (c *Column) Stats() ColStats {
	st := ColStats{Rows: c.rows}
	if d := c.Dict(); d != nil {
		st.NDV = int64(d.Card())
	}
	zm := c.Zone()
	if zm == nil || zm.Blocks() == 0 || c.rows == 0 {
		return st
	}
	if c.Kind == Float64 {
		st.Float = true
		st.MinF, st.MaxF = zm.MinF[0], zm.MaxF[0]
		for b := 1; b < len(zm.MinF); b++ {
			if zm.MinF[b] < st.MinF {
				st.MinF = zm.MinF[b]
			}
			if zm.MaxF[b] > st.MaxF {
				st.MaxF = zm.MaxF[b]
			}
		}
		st.HasRange = st.MinF <= st.MaxF // false for an all-NaN column
		return st
	}
	st.MinI, st.MaxI = zm.MinI[0], zm.MaxI[0]
	for b := 1; b < len(zm.MinI); b++ {
		if zm.MinI[b] < st.MinI {
			st.MinI = zm.MinI[b]
		}
		if zm.MaxI[b] > st.MaxI {
			st.MaxI = zm.MaxI[b]
		}
	}
	st.HasRange = true
	if st.NDV == 0 {
		// Uniform-domain heuristic; guard the span against overflow.
		span := uint64(st.MaxI) - uint64(st.MinI)
		ndv := int64(c.rows)
		if span < uint64(c.rows) {
			ndv = int64(span) + 1
		}
		st.NDV = ndv
	}
	return st
}
