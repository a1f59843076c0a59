package sink

import (
	"math"
	"math/rand"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
)

// refTopK is TopK as it was before the heap moved to TopKPerm: a bounded
// max-heap over boxed rows that re-evaluates the keys through CmpRows on
// every comparison. Kept as the reference: with NaN keys the comparator
// is not a strict weak order, a heap and a merge sort then disagree about
// the prefix, and what TopKPerm must reproduce is this heap's answer.
func refTopK(rows [][]expr.Datum, keys []plan.SortKey, k int) [][]expr.Datum {
	if k <= 0 {
		return nil
	}
	if k >= len(rows) {
		SortRows(rows, keys)
		return rows
	}
	type elem struct {
		row []expr.Datum
		idx int
	}
	before := func(a, b elem) bool {
		if c := CmpRows(a.row, b.row, keys); c != 0 {
			return c < 0
		}
		return a.idx < b.idx
	}
	h := make([]elem, 0, k)
	siftDown := func(i int) {
		for {
			last := i
			if l := 2*i + 1; l < len(h) && before(h[last], h[l]) {
				last = l
			}
			if r := 2*i + 2; r < len(h) && before(h[last], h[r]) {
				last = r
			}
			if last == i {
				return
			}
			h[i], h[last] = h[last], h[i]
			i = last
		}
	}
	for i, row := range rows {
		e := elem{row, i}
		if len(h) < k {
			h = append(h, e)
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if !before(h[p], h[j]) {
					break
				}
				h[p], h[j] = h[j], h[p]
				j = p
			}
			continue
		}
		if before(e, h[0]) {
			h[0] = e
			siftDown(0)
		}
	}
	out := make([][]expr.Datum, len(h))
	for n := len(h) - 1; n >= 0; n-- {
		out[n] = h[0].row
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(0)
	}
	return out
}

// TestPermMatchesSortRows is the differential net of the record sorter:
// for random rows with heavy ties, Desc keys, NaN float keys and an
// expression key, SortPerm over once-evaluated keys must produce exactly
// the order of SortRows (CmpRows with expr.Eval per comparison — the
// oracle), and TopKPerm exactly the rows and order of refTopK.
func TestPermMatchesSortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	floats := []float64{0, 1, -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	specs := [][]plan.SortKey{
		{{E: expr.Col(0, expr.TInt)}},
		{{E: expr.Col(0, expr.TInt), Desc: true}, {E: expr.Col(2, expr.TString)}},
		{{E: expr.Col(1, expr.TFloat)}, {E: expr.Col(0, expr.TInt), Desc: true}},
		{{E: expr.Col(1, expr.TFloat), Desc: true}},
		{{E: expr.Add(expr.Col(0, expr.TInt), expr.Col(3, expr.TInt)), Desc: true}, {E: expr.Col(2, expr.TString), Desc: true}},
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		rows := make([][]expr.Datum, n)
		for i := range rows {
			rows[i] = []expr.Datum{
				{I: int64(rng.Intn(4))},
				{F: floats[rng.Intn(len(floats))]},
				{S: string(rune('a' + rng.Intn(3)))},
				{I: int64(rng.Intn(3))},
				{I: int64(i)}, // input position: makes stability violations visible
			}
		}
		spec := specs[trial%len(specs)]
		want := append([][]expr.Datum(nil), rows...)
		SortRows(want, spec)

		ks := NewKeys(spec, n)
		for i, row := range rows {
			for j, k := range spec {
				ks.Row(i)[j] = expr.Eval(k.E, row)
			}
		}
		check := func(what string, perm []int32, want [][]expr.Datum) {
			t.Helper()
			if len(perm) != len(want) {
				t.Fatalf("trial %d %s: %d rows, want %d", trial, what, len(perm), len(want))
			}
			for r, p := range perm {
				// DeepEqual would reject NaN == NaN; the position tag
				// identifies the row.
				if rows[p][4].I != want[r][4].I {
					t.Fatalf("trial %d %s: position %d holds input row %d, the reference put %d there",
						trial, what, r, rows[p][4].I, want[r][4].I)
				}
			}
		}
		check("SortPerm", SortPerm(ks, n), want)
		for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 7} {
			if k < 0 {
				continue
			}
			ref := refTopK(append([][]expr.Datum(nil), rows...), spec, k)
			check("TopKPerm", TopKPerm(ks, n, k), ref)
			got := TopK(append([][]expr.Datum(nil), rows...), spec, k)
			if len(got) != len(ref) {
				t.Fatalf("trial %d TopK(%d): %d rows, want %d", trial, k, len(got), len(ref))
			}
			for r := range got {
				if got[r][4].I != ref[r][4].I {
					t.Fatalf("trial %d TopK(%d): position %d holds row %d, want %d", trial, k, r, got[r][4].I, ref[r][4].I)
				}
			}
		}
	}
}
