package sink

import (
	"aqe/internal/expr"
	"aqe/internal/plan"
)

// TopK returns the first k rows of the stable sort of rows by keys
// without sorting the full input (see TopKPerm): ties keep input order
// and the result is exactly SortRows followed by truncation. The input
// slice is reordered only on the degenerate k >= len(rows) path (which
// falls back to a full sort in place).
func TopK(rows [][]expr.Datum, keys []plan.SortKey, k int) [][]expr.Datum {
	if k <= 0 {
		return nil
	}
	if k >= len(rows) {
		SortRows(rows, keys)
		return rows
	}
	ks := NewKeys(keys, len(rows))
	for i, row := range rows {
		kr := ks.Row(i)
		for j, key := range keys {
			kr[j] = expr.Eval(key.E, row)
		}
	}
	perm := TopKPerm(ks, len(rows), k)
	out := make([][]expr.Datum, len(perm))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out
}
