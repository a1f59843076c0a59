package sink

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
)

// refTopK is TopK as it was before the heap moved to TopKPerm: a bounded
// max-heap over boxed rows that re-evaluates the keys through CmpRows on
// every comparison. Kept as an independent reference for both TopK and
// TopKPerm.
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
// for random rows with heavy ties, Desc keys, NaN float keys, strings that
// tie on their 8-byte prefix, three keys and an expression key, SortPerm
// over once-normalized keys must produce exactly the order of SortRows
// (CmpRows with expr.Eval per comparison — the oracle), and TopKPerm
// exactly the rows and order of refTopK.
func TestPermMatchesSortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	floats := []float64{0, 1, -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	specs := [][]plan.SortKey{
		{{E: expr.Col(0, expr.TInt)}},
		{{E: expr.Col(0, expr.TInt), Desc: true}, {E: expr.Col(2, expr.TString)}},
		{{E: expr.Col(1, expr.TFloat)}, {E: expr.Col(0, expr.TInt), Desc: true}},
		{{E: expr.Col(1, expr.TFloat), Desc: true}},
		{{E: expr.Add(expr.Col(0, expr.TInt), expr.Col(3, expr.TInt)), Desc: true}, {E: expr.Col(2, expr.TString), Desc: true}},
		{{E: expr.Col(2, expr.TString)}, {E: expr.Col(3, expr.TInt)}},
		{{E: expr.Col(3, expr.TInt)}, {E: expr.Col(1, expr.TFloat), Desc: true}, {E: expr.Col(2, expr.TString)}},
	}
	// Strings that tie on the 8-byte prefix the sort compares first.
	strs := []string{"a", "b", "c", "abcdefgh", "abcdefghi", "abcdefgh\x00", "abcdefgz"}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		rows := make([][]expr.Datum, n)
		for i := range rows {
			rows[i] = []expr.Datum{
				{I: int64(rng.Intn(4))},
				{F: floats[rng.Intn(len(floats))]},
				{S: strs[rng.Intn(len(strs))]},
				{I: int64(rng.Intn(3))},
				{I: int64(i)}, // input position: makes stability violations visible
			}
		}
		spec := specs[trial%len(specs)]
		// Some inputs arrive in long runs, as a scan's output does: two
		// ascending halves, or one descending run.
		switch trial % 10 {
		case 8:
			SortRows(rows[:n/2], spec)
			SortRows(rows[n/2:], spec)
		case 9:
			SortRows(rows, spec)
			slices.Reverse(rows)
		}
		for i := range rows {
			rows[i][4].I = int64(i)
		}
		want := append([][]expr.Datum(nil), rows...)
		SortRows(want, spec)

		// keys normalizes the rows afresh: SortPerm spends its keys.
		keys := func() *Keys {
			ks := NewKeys(spec, n)
			for i, row := range rows {
				for j, k := range spec {
					ks.PutDatum(i, j, expr.Eval(k.E, row))
				}
			}
			return ks
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
		check("SortPerm", SortPerm(keys(), n), want)
		for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 7} {
			if k < 0 {
				continue
			}
			ref := refTopK(append([][]expr.Datum(nil), rows...), spec, k)
			check("TopKPerm", TopKPerm(keys(), n, k), ref)
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

// TestSortRowsNaN: a float key holding NaN sorts in a total order — NaN
// after +Inf, NaN equal to NaN (ties keep input order), -0 equal to +0.
func TestSortRowsNaN(t *testing.T) {
	nan := math.NaN()
	in := []float64{2, nan, 1, math.Inf(1), nan, math.Copysign(0, -1), 0, math.Inf(-1)}
	rows := make([][]expr.Datum, len(in))
	for i, f := range in {
		rows[i] = []expr.Datum{{F: f}, {I: int64(i)}}
	}
	for _, desc := range []bool{false, true} {
		got := append([][]expr.Datum(nil), rows...)
		SortRows(got, []plan.SortKey{{E: expr.Col(0, expr.TFloat), Desc: desc}})
		want := []int64{7, 5, 6, 2, 0, 3, 1, 4}
		if desc {
			want = []int64{1, 4, 3, 0, 2, 5, 6, 7}
		}
		for i, r := range got {
			if r[1].I != want[i] {
				t.Fatalf("desc=%v: position %d holds input row %d (%v), want row %d", desc, i, r[1].I, r[0].F, want[i])
			}
		}
	}
}

// TestKeysMatchCompareDatum: for every pair of values of every key kind —
// the extremes, -0, NaN, infinities, strings that tie on the 8-byte prefix,
// strings that differ only in length or in a trailing zero byte — the
// normalized words (with the byte compare on a tied prefix) order the pair
// exactly as CompareDatum, ascending and descending.
func TestKeysMatchCompareDatum(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1, 2, 1 << 40, math.MaxInt64}
	floats := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001)}
	strs := []string{"", "\x00", "a", "a\x00", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi",
		"abcdefgz", "abcdefgha", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00", "zz"}
	for i := 0; i < 200; i++ {
		ints = append(ints, int64(rng.Uint64()))
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	kinds := []struct {
		t    expr.Type
		vals []expr.Datum
	}{
		{expr.TInt, nil}, {expr.Type{Kind: expr.KDecimal, Scale: 2}, nil}, {expr.Type{Kind: expr.KDate}, nil},
		{expr.TFloat, nil}, {expr.TString, nil},
	}
	for k := range kinds {
		switch kinds[k].t.Kind {
		case expr.KFloat:
			for _, f := range floats {
				kinds[k].vals = append(kinds[k].vals, expr.Datum{F: f})
			}
		case expr.KString:
			for _, s := range strs {
				kinds[k].vals = append(kinds[k].vals, expr.Datum{S: s})
			}
		default:
			for _, v := range ints {
				kinds[k].vals = append(kinds[k].vals, expr.Datum{I: v})
			}
		}
	}
	for _, kd := range kinds {
		for _, desc := range []bool{false, true} {
			spec := []plan.SortKey{{E: expr.Col(0, kd.t), Desc: desc}}
			ks := NewKeys(spec, len(kd.vals))
			for i, d := range kd.vals {
				ks.PutDatum(i, 0, d)
			}
			for a, da := range kd.vals {
				for b, db := range kd.vals {
					want := CompareDatum(da, db, kd.t)
					if desc {
						want = -want
					}
					if got := ks.Cmp(a, b); got != want {
						t.Fatalf("%v desc=%v: Cmp(%v, %v) = %d, CompareDatum says %d", kd.t, desc, da, db, got, want)
					}
				}
			}
		}
	}
}
