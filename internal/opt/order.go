package opt

import "math"

// estimator holds per-relation cardinality estimates and the observation
// overrides the adaptive replan protocol feeds back.
type estimator struct {
	g *Graph
	// baseCard is the estimated filtered cardinality per relation;
	// impossible marks a provably-empty relation (exactly zero rows).
	baseCard   []float64
	impossible []bool
	// observed is the true build-side cardinality reported by the engine
	// at a pipeline breaker, -1 when not yet observed. Observations
	// replace estimates wholesale — they are exact.
	observed []int64
}

func newEstimator(g *Graph) *estimator {
	est := &estimator{
		g:          g,
		baseCard:   make([]float64, len(g.Rels)),
		impossible: make([]bool, len(g.Rels)),
		observed:   make([]int64, len(g.Rels)),
	}
	for i := range g.Rels {
		r := &g.Rels[i]
		s := relSel(r)
		est.impossible[i] = s.impossible
		est.baseCard[i] = clampSel(s.frac) * float64(r.Table.Rows())
		est.observed[i] = -1
	}
	return est
}

func (est *estimator) override(rel int, observed int64) {
	est.observed[rel] = observed
	if observed == 0 {
		// The build ran and produced nothing: the emptiness is now a
		// fact, not an estimate.
		est.impossible[rel] = true
	}
}

// card returns the working cardinality of a relation: the observation if
// one exists, the estimate otherwise.
func (est *estimator) card(rel int) float64 {
	if est.observed[rel] >= 0 {
		return float64(est.observed[rel])
	}
	if est.impossible[rel] {
		return 0
	}
	return est.baseCard[rel]
}

// empty reports that some relation is provably empty.
func (est *estimator) empty() bool {
	for i := range est.impossible {
		if est.impossible[i] || est.observed[i] == 0 {
			return true
		}
	}
	return false
}

// ndv estimates the distinct count of a relation's column after its
// filter: the base-table NDV capped by the filtered cardinality.
func (est *estimator) ndv(rel int, col string) float64 {
	st := est.g.Rels[rel].Table.MustCol(col).Stats()
	n := float64(st.NDV)
	if n <= 0 {
		n = float64(st.Rows)
	}
	if c := est.card(rel); c < n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// joinCard estimates |S ⋈ r| for an intermediate of cardinality cardS
// joining relation rel over the given edges, with the textbook
// max-containment rule per key pair: divide by max(ndv(S.key), ndv(r.key))
// under key independence. ndvS bounds the set-side NDV by the current
// intermediate cardinality.
func (est *estimator) joinCard(cardS float64, setNDV func(rel int, col string) float64,
	rel int, edges []edgeRef) float64 {
	out := cardS * est.card(rel)
	for _, e := range edges {
		ds := setNDV(e.setRel, e.setCol)
		dr := est.ndv(rel, e.relCol)
		d := math.Max(ds, dr)
		if d < 1 {
			d = 1
		}
		out /= d
	}
	return out
}

// edgeRef is one edge incident to the growing set, oriented.
type edgeRef struct {
	setRel int
	setCol string
	relCol string
}

// connecting returns the edges joining rel to the set, oriented.
func connecting(g *Graph, inSet []bool, rel int) []edgeRef {
	var out []edgeRef
	for _, e := range g.Edges {
		switch {
		case inSet[e.L] && e.R == rel:
			out = append(out, edgeRef{setRel: e.L, setCol: e.LCol, relCol: e.RCol})
		case inSet[e.R] && e.L == rel:
			out = append(out, edgeRef{setRel: e.R, setCol: e.RCol, relCol: e.LCol})
		}
	}
	return out
}

// greedyFrom runs one greedy enumeration from a fixed probe root: at
// every step, add the connected relation minimizing the estimated next
// intermediate cardinality (ties: smaller relation, then lower index, so
// golden tests are deterministic).
func (est *estimator) greedyFrom(start int) (order []int, inters []float64) {
	g := est.g
	n := len(g.Rels)
	order = make([]int, 0, n)
	inSet := make([]bool, n)
	order = append(order, start)
	inSet[start] = true
	cardS := est.card(start)
	// Set-side NDV: base NDV capped by the *current* intermediate
	// cardinality (a join can only lose distinct values).
	setNDV := func(rel int, col string) float64 {
		d := est.ndv(rel, col)
		if cardS < d {
			d = cardS
		}
		if d < 1 {
			d = 1
		}
		return d
	}
	for len(order) < n {
		best, bestCard := -1, math.Inf(1)
		for r := 0; r < n; r++ {
			if inSet[r] {
				continue
			}
			edges := connecting(g, inSet, r)
			if len(edges) == 0 {
				continue
			}
			c := est.joinCard(cardS, setNDV, r, edges)
			if c < bestCard ||
				(c == bestCard && best >= 0 && est.card(r) < est.card(best)) {
				best, bestCard = r, c
			}
		}
		order = append(order, best)
		inSet[best] = true
		cardS = bestCard
		inters = append(inters, bestCard)
	}
	return order, inters
}

// buildWeight is what one build-side tuple costs relative to one probed
// tuple: a build tuple is materialized into its worker's arena, linked
// into its chain at finalize and sized into a bucket array that is zeroed,
// while a probed tuple only streams past one hash lookup. Measured once
// with native code on one worker of a 2-core x86-64 host, SF 0.01
// orders ⋈ lineitem built both ways: a build tuple costs 31 ns (22 ns
// materialized, 9 ns linked), a probed tuple ~0 ns beyond the 28 ns of
// each match it produces. The cost below charges a probed tuple and a
// match one unit each, so a build tuple is 1 + 31/28 ≈ 2 units.
const buildWeight = 2

// orderCost prices a complete order: the probe-root scan, every
// build-side tuple at buildWeight, and every intermediate result — the
// tuples that flow through the fused probe pipeline. The build weight is
// what makes the orderer build the smaller input: at weight 1 the inputs
// sum to the same constant under every order, so which one is built never
// counted.
func (est *estimator) orderCost(order []int) (cost float64, inters []float64) {
	g := est.g
	n := len(g.Rels)
	inSet := make([]bool, n)
	inSet[order[0]] = true
	cardS := est.card(order[0])
	cost = cardS
	setNDV := func(rel int, col string) float64 {
		d := est.ndv(rel, col)
		if cardS < d {
			d = cardS
		}
		if d < 1 {
			d = 1
		}
		return d
	}
	for _, rel := range order[1:] {
		cost += buildWeight * est.card(rel)
		cardS = est.joinCard(cardS, setNDV, rel, connecting(g, inSet, rel))
		inSet[rel] = true
		inters = append(inters, cardS)
		cost += cardS
	}
	return cost, inters
}

// bestOrder tries every start relation and keeps the cheapest greedy
// order (ties: lexicographically smallest order, for determinism).
func (est *estimator) bestOrder() []int {
	n := len(est.g.Rels)
	if n == 1 {
		return []int{0}
	}
	var best []int
	bestCost := math.Inf(1)
	for s := 0; s < n; s++ {
		order, _ := est.greedyFrom(s)
		cost, _ := est.orderCost(order)
		if best == nil || cost < bestCost ||
			(cost == bestCost && lexLess(order, best)) {
			best, bestCost = order, cost
		}
	}
	return best
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
