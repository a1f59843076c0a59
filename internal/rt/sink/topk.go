package sink

import (
	"aqe/internal/expr"
	"aqe/internal/plan"
)

// TopK returns the first k rows of the stable sort of rows by keys
// without sorting the full input: each key is evaluated once per row and
// compared with CompareDatum through the bounded heap TopKPerm also uses,
// so ties keep input order and the result is exactly SortRows followed by
// truncation. The input slice is reordered only on the degenerate
// k >= len(rows) path (which falls back to a full sort in place).
func TopK(rows [][]expr.Datum, keys []plan.SortKey, k int) [][]expr.Datum {
	if k <= 0 {
		return nil
	}
	if k >= len(rows) {
		SortRows(rows, keys)
		return rows
	}
	nk := len(keys)
	vals := make([]expr.Datum, len(rows)*nk)
	for i, row := range rows {
		for j, key := range keys {
			vals[i*nk+j] = expr.Eval(key.E, row)
		}
	}
	perm := topK(len(rows), k, func(a, b int) int {
		for j, key := range keys {
			if c := CompareDatum(vals[a*nk+j], vals[b*nk+j], key.E.Type()); c != 0 {
				if key.Desc {
					c = -c
				}
				return c
			}
		}
		return 0
	})
	out := make([][]expr.Datum, len(perm))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out
}
