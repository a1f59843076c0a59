// Package sink holds the result-side machinery every engine shares: row
// ordering, the bounded top-k heap, and datum comparison. The volcano
// iterator engine orders decoded [][]expr.Datum rows (SortRows, TopK);
// the compiled engine's root ORDER BY orders a permutation
// over raw output records by normalized machine-word keys (Keys,
// SortPerm, TopKPerm). Both must order identically (the differential net
// compares engines row for row), so the order is defined here once —
// CompareDatum — with the normalized keys built to reproduce it, and the
// bounded heap is shared.
package sink

import (
	"sort"

	"aqe/internal/expr"
	"aqe/internal/plan"
)

// SortRows stable-sorts decoded rows by the given keys.
func SortRows(rows [][]expr.Datum, keys []plan.SortKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		return CmpRows(rows[i], rows[j], keys) < 0
	})
}

// CmpRows compares two decoded rows by the sort keys (Desc keys
// reversed), returning -1/0/1.
func CmpRows(a, b []expr.Datum, keys []plan.SortKey) int {
	for _, k := range keys {
		av := expr.Eval(k.E, a)
		bv := expr.Eval(k.E, b)
		c := CompareDatum(av, bv, k.E.Type())
		if c != 0 {
			if k.Desc {
				c = -c
			}
			return c
		}
	}
	return 0
}

// CompareDatum orders two datums of the same type, returning -1/0/1. It
// is a total order: floats order NaN after +Inf and equal to NaN (and -0
// equal to +0).
func CompareDatum(a, b expr.Datum, t expr.Type) int {
	switch t.Kind {
	case expr.KFloat:
		an, bn := a.F != a.F, b.F != b.F
		switch {
		case an || bn:
			if an && bn {
				return 0
			}
			if an {
				return 1
			}
			return -1
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case expr.KString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	default:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}
