package sink

import (
	"sort"

	"aqe/internal/expr"
	"aqe/internal/plan"
)

// Keys holds the sort-key values of n rows, evaluated once per row
// instead of once per comparison: row i's k-th key is Vals[i*len(Spec)+k].
// Ordering a permutation over Keys is how the compiled engine sorts its
// raw output records without boxing them into []expr.Datum rows; SortRows
// / TopK / CmpRows over boxed rows remain the definition it must match.
type Keys struct {
	Spec []plan.SortKey
	Vals []expr.Datum
}

// NewKeys sizes the key table for n rows.
func NewKeys(spec []plan.SortKey, n int) *Keys {
	return &Keys{Spec: spec, Vals: make([]expr.Datum, n*len(spec))}
}

// Row returns row i's key slots, for the caller to fill.
func (k *Keys) Row(i int) []expr.Datum {
	nk := len(k.Spec)
	return k.Vals[i*nk : (i+1)*nk]
}

// Cmp orders rows a and b exactly as CmpRows orders the rows the keys
// were evaluated from.
func (k *Keys) Cmp(a, b int) int {
	ka, kb := k.Row(a), k.Row(b)
	for i, s := range k.Spec {
		if c := CompareDatum(ka[i], kb[i], s.E.Type()); c != 0 {
			if s.Desc {
				c = -c
			}
			return c
		}
	}
	return 0
}

// SortPerm returns the permutation that stable-sorts rows 0..n-1 by
// their keys: out[r] is the input row at result position r. It runs the
// same algorithm over the same comparison outcomes as SortRows, so the
// two agree even where the comparator is not a strict weak order (NaN
// keys compare equal to everything).
func SortPerm(k *Keys, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		return k.Cmp(int(perm[i]), int(perm[j])) < 0
	})
	return perm
}

// TopKPerm returns the first limit entries of SortPerm without sorting
// the full input, through the same bounded max-heap as TopK: the heap
// retains the limit earliest (key, position) pairs, so ties keep input
// order.
func TopKPerm(k *Keys, n, limit int) []int32 {
	if limit <= 0 {
		return nil
	}
	if limit >= n {
		return SortPerm(k, n)
	}
	// before reports whether row a precedes row b in the stable output
	// order: keys first, input position as the tiebreak.
	before := func(a, b int32) bool {
		if c := k.Cmp(int(a), int(b)); c != 0 {
			return c < 0
		}
		return a < b
	}
	// Max-heap of the best rows seen so far; the root sorts last among
	// them and is the first to be evicted.
	h := make([]int32, 0, limit)
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
	for i := 0; i < n; i++ {
		e := int32(i)
		if len(h) < limit {
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
	// Pop in reverse: the root is the last of the survivors.
	out := make([]int32, len(h))
	for m := len(h) - 1; m >= 0; m-- {
		out[m] = h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(0)
	}
	return out
}
