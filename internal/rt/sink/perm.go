package sink

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"aqe/internal/expr"
	"aqe/internal/plan"
)

// Keys holds the normalized sort keys of n rows, computed once per row:
// one machine word per key whose unsigned order is the key's SQL order
// (CompareDatum, Desc applied):
//
//   - integers, decimals, dates, chars and bools: the int64 with its sign
//     bit flipped;
//   - floats: the IEEE total-order transform (negative values inverted,
//     positive ones with the sign bit set), -0 folded into +0 and every NaN
//     into the largest word, so NaN sorts after +Inf and equals NaN;
//   - strings: the first 8 bytes big-endian, zero padded; rows whose
//     prefixes tie are ordered by a full byte compare of the strings;
//   - a Desc key: the word inverted (and the byte compare reversed).
//
// Ordering a permutation over Keys is how the compiled engine sorts its
// raw output records without boxing them; SortRows / TopK / CmpRows over
// boxed rows remain the definition it must match.
type Keys struct {
	Spec []plan.SortKey

	// rows holds each row's first two key words beside its position —
	// the entries SortPerm sorts; more holds the words of any further
	// keys: row i's key j ≥ 2 at more[i*(len(Spec)-2)+j-2].
	rows []sortEntry
	more []uint64

	kind []keyKind
	// flip is XORed into every word of a key: the sign bit for an integer
	// key, all bits more for a Desc key.
	flip []uint64
	// strs holds the full bytes of the string keys: row i's string key s
	// (strOf) is strs[i*nstr+s].
	strs  [][]byte
	strOf []int
	nstr  int
}

// sortEntry is one row's first two key words and its position: what
// SortPerm moves, so a comparison the leading keys decide touches nothing
// else.
type sortEntry struct {
	w0, w1 uint64
	pos    int32
}

type keyKind uint8

const (
	kindInt keyKind = iota
	kindFloat
	kindStr
)

// NewKeys sizes the key table for n rows.
func NewKeys(spec []plan.SortKey, n int) *Keys {
	k := &Keys{Spec: spec, rows: make([]sortEntry, n),
		kind: make([]keyKind, len(spec)), flip: make([]uint64, len(spec)), strOf: make([]int, len(spec))}
	for i := range k.rows {
		k.rows[i].pos = int32(i)
	}
	if len(spec) > 2 {
		k.more = make([]uint64, n*(len(spec)-2))
	}
	for j, s := range spec {
		k.strOf[j] = -1
		switch s.E.Type().Kind {
		case expr.KFloat:
			k.kind[j] = kindFloat
		case expr.KString:
			k.kind[j] = kindStr
			k.strOf[j] = k.nstr
			k.nstr++
		default:
			k.flip[j] = 1 << 63
		}
		if s.Desc {
			k.flip[j] = ^k.flip[j]
		}
	}
	if k.nstr > 0 {
		k.strs = make([][]byte, n*k.nstr)
	}
	return k
}

// set stores row i's word for key j.
func (k *Keys) set(i, j int, w uint64) {
	switch j {
	case 0:
		k.rows[i].w0 = w
	case 1:
		k.rows[i].w1 = w
	default:
		k.more[i*(len(k.Spec)-2)+j-2] = w
	}
}

// get returns row i's word for key j.
func (k *Keys) get(i, j int) uint64 {
	switch j {
	case 0:
		return k.rows[i].w0
	case 1:
		return k.rows[i].w1
	}
	return k.more[i*(len(k.Spec)-2)+j-2]
}

// PutRecords sets the keys of rows first, first+1, ... from the
// fixed-width records in recs, size bytes each, and returns the row after
// the last: key j from the record's 8-byte slot at offs[j] — integers,
// decimals, dates, chars and bools as their int64, floats as IEEE bits,
// strings as the address and length of their bytes, which bytesAt
// resolves. A key whose offs[j] is negative (an expression) is left for
// PutDatum.
func (k *Keys) PutRecords(first int, recs []byte, size int, offs []int, bytesAt func(addr uint64, n int) []byte) int {
	i := first
	for ; len(recs) >= size; recs = recs[size:] {
		rec := recs[:size]
		for j, off := range offs {
			if off < 0 {
				continue
			}
			w := binary.LittleEndian.Uint64(rec[off:])
			switch k.kind[j] {
			case kindFloat:
				w = normFloat(math.Float64frombits(w))
			case kindStr:
				w = k.strWord(i, j, bytesAt(w, int(binary.LittleEndian.Uint64(rec[off+8:]))))
			}
			k.set(i, j, w^k.flip[j])
		}
		i++
	}
	return i
}

// PutDatum sets row i's key j from a boxed value.
func (k *Keys) PutDatum(i, j int, d expr.Datum) {
	w := uint64(d.I)
	switch k.kind[j] {
	case kindFloat:
		w = normFloat(d.F)
	case kindStr:
		w = k.strWord(i, j, []byte(d.S))
	}
	k.set(i, j, w^k.flip[j])
}

// strWord keeps str as row i's string key j (held, not copied) and
// returns its first 8 bytes big-endian, zero padded.
func (k *Keys) strWord(i, j int, str []byte) uint64 {
	k.strs[i*k.nstr+k.strOf[j]] = str
	var pre [8]byte
	copy(pre[:], str)
	return binary.BigEndian.Uint64(pre[:])
}

// normFloat is the IEEE total-order transform with -0 and NaN made
// canonical, so the words compare as CompareDatum compares the floats.
func normFloat(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	if f == 0 {
		f = 0 // -0 == +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Cmp orders rows a and b exactly as CmpRows orders the rows the keys
// were computed from.
func (k *Keys) Cmp(a, b int) int { return k.cmpFrom(a, b, 0) }

// cmpFrom is Cmp over keys from, from+1, ...
func (k *Keys) cmpFrom(a, b, from int) int {
	for j := from; j < len(k.Spec); j++ {
		if wa, wb := k.get(a, j), k.get(b, j); wa != wb {
			return cmp.Compare(wa, wb)
		}
		if c := k.strCmp(j, a, b); c != 0 {
			return c
		}
	}
	return 0
}

// strCmp orders rows a and b by the full bytes of key j when it is a
// string key (its words tie), and returns 0 for any other key.
func (k *Keys) strCmp(j, a, b int) int {
	s := k.strOf[j]
	if s < 0 {
		return 0
	}
	c := bytes.Compare(k.strs[a*k.nstr+s], k.strs[b*k.nstr+s])
	if k.Spec[j].Desc {
		c = -c
	}
	return c
}

// entryOrder orders sortEntries as Keys.Cmp orders their rows.
type entryOrder struct {
	k *Keys
	// wordsDecide: the two words are all the keys, neither a string.
	wordsDecide bool
}

// le reports whether x sorts no later than y: the first words decide
// unless they tie.
func (o *entryOrder) le(x, y *sortEntry) bool {
	return x.w0 < y.w0 || x.w0 == y.w0 && o.tie(x, y) <= 0
}

// lt reports whether x sorts strictly before y.
func (o *entryOrder) lt(x, y *sortEntry) bool {
	return x.w0 < y.w0 || x.w0 == y.w0 && o.tie(x, y) < 0
}

// tie compares two entries whose first words are equal. It reads the
// first two words from the entries themselves, never through their
// positions, so it stays valid while SortPerm reorders k's rows.
func (o *entryOrder) tie(x, y *sortEntry) int {
	a, b := int(x.pos), int(y.pos)
	if c := o.k.strCmp(0, a, b); c != 0 {
		return c
	}
	if x.w1 != y.w1 {
		return cmp.Compare(x.w1, y.w1)
	}
	if o.wordsDecide || len(o.k.Spec) < 2 {
		return 0
	}
	if c := o.k.strCmp(1, a, b); c != 0 {
		return c
	}
	return o.k.cmpFrom(a, b, 2)
}

// SortPerm returns the permutation that stable-sorts rows 0..n-1 by
// their keys: out[r] is the input row at result position r. Rows with
// equal keys keep their input order, as in SortRows. It sorts k's entries
// in place, so k serves one SortPerm or TopKPerm: Cmp is meaningless
// afterwards.
func SortPerm(k *Keys, n int) []int32 {
	nk := len(k.Spec)
	o := &entryOrder{k: k, wordsDecide: nk <= 2 && k.nstr == 0}
	es := o.mergeSort(k.rows[:n])
	perm := make([]int32, n)
	for i, e := range es {
		perm[i] = e.pos
	}
	return perm
}

// minRun is the shortest run mergeSort merges; shorter natural runs are
// extended by insertion sort first.
const minRun = 32

// mergeSort stable-sorts es and returns the sorted entries, in es or in a
// buffer of the same length. It splits es into natural runs —
// non-descending ones as they are, strictly descending ones reversed,
// short ones extended to minRun by insertion sort — then merges
// neighbouring runs pairwise until one is left. The output of a scan
// arrives as long ordered runs (one per worker or morsel), so an ORDER BY
// on the key a table is stored in costs a few linear passes.
func (o *entryOrder) mergeSort(es []sortEntry) []sortEntry {
	n := len(es)
	bounds := []int{0}
	for lo := 0; lo < n; {
		hi := lo + 1
		if hi < n && o.lt(&es[hi], &es[lo]) {
			for hi++; hi < n && o.lt(&es[hi], &es[hi-1]); hi++ {
			}
			slices.Reverse(es[lo:hi])
		} else {
			for ; hi < n && o.le(&es[hi-1], &es[hi]); hi++ {
			}
		}
		if hi-lo < minRun && hi < n {
			end := min(lo+minRun, n)
			o.insertionSort(es[lo:end], hi-lo)
			hi = end
		}
		bounds = append(bounds, hi)
		lo = hi
	}
	if len(bounds) <= 2 {
		return es
	}
	src, dst := es, make([]sortEntry, n)
	for len(bounds) > 2 {
		next := bounds[:1]
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid := bounds[i], bounds[i+1]
			hi := mid
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			o.merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		bounds = next
		src, dst = dst, src
	}
	return src
}

// insertionSort sorts es whose first sorted elements are already in order.
func (o *entryOrder) insertionSort(es []sortEntry, sorted int) {
	for i := max(sorted, 1); i < len(es); i++ {
		for j := i; j > 0 && o.lt(&es[j], &es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// merge merges the ordered runs a and b into dst, taking from a on ties.
func (o *entryOrder) merge(dst, a, b []sortEntry) {
	if len(b) == 0 || o.le(&a[len(a)-1], &b[0]) {
		copy(dst, a)
		copy(dst[len(a):], b)
		return
	}
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		if o.le(&a[i], &b[j]) {
			dst[d] = a[i]
			i++
		} else {
			dst[d] = b[j]
			j++
		}
		d++
	}
	d += copy(dst[d:], a[i:])
	copy(dst[d:], b[j:])
}

// TopKPerm returns the first limit entries of SortPerm without sorting
// the full input (see topK).
func TopKPerm(k *Keys, n, limit int) []int32 {
	if limit <= 0 {
		return nil
	}
	if limit >= n {
		return SortPerm(k, n)
	}
	return topK(n, limit, k.Cmp)
}

// topK returns, in order, the limit < n first rows of 0..n-1 under
// order, with input position as the tiebreak, through a bounded max-heap:
// the heap retains the limit earliest (key, position) pairs, so ties keep
// input order and the result is the prefix of the stable sort.
func topK(n, limit int, order func(a, b int) int) []int32 {
	// before reports whether row a precedes row b in the stable output
	// order: keys first, input position as the tiebreak.
	before := func(a, b int32) bool {
		if c := order(int(a), int(b)); c != 0 {
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
