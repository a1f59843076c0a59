package opt_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/opt"
	"aqe/internal/plan"
	"aqe/internal/storage"
	"aqe/internal/synth"
	"aqe/internal/volcano"
)

// intTable builds a table of int64 columns from parallel value slices.
func intTable(name string, cols []string, vals [][]int64) *storage.Table {
	sc := make([]*storage.Column, len(cols))
	for i, c := range cols {
		sc[i] = storage.NewColumn(c, storage.Int64)
		for _, v := range vals[i] {
			sc[i].AppendInt64(v)
		}
	}
	t := storage.NewTable(name, sc...)
	t.BuildZoneMaps(storage.DefaultZoneBlockRows)
	return t
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// orderOne prepares a single-relation graph with the given filter bound
// against the scan schema of cols.
func orderOne(t *testing.T, tab *storage.Table, cols []string,
	mkFilter func(sch []plan.ColDef) expr.Expr) *opt.Prepared {
	t.Helper()
	r := opt.Relation{Name: tab.Name, Table: tab, Cols: cols}
	if mkFilter != nil {
		r.Filter = mkFilter(plan.NewScan(tab, cols...).Schema())
	}
	p, err := opt.Order(&opt.Logical{Name: "one", Graph: &opt.Graph{Rels: []opt.Relation{r}}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCardinalityInt(t *testing.T) {
	// 100 rows, u = 0..99: range and NDV stats are exact.
	tab := intTable("c1", []string{"u"}, [][]int64{seq(100)})
	cases := []struct {
		name     string
		filter   func(sch []plan.ColDef) expr.Expr
		lo, hi   float64
		wantEmpt bool
	}{
		{"none", nil, 100, 100, false},
		{"quarter", func(s []plan.ColDef) expr.Expr {
			return expr.Lt(plan.C(s, "u"), expr.Int(25))
		}, 20, 30, false},
		{"eq", func(s []plan.ColDef) expr.Expr {
			return expr.Eq(plan.C(s, "u"), expr.Int(7))
		}, 0.5, 2, false},
		{"flipped", func(s []plan.ColDef) expr.Expr {
			// const <op> col must estimate like col <op> const.
			return expr.Gt(expr.Int(25), plan.C(s, "u"))
		}, 20, 30, false},
		{"conjunction", func(s []plan.ColDef) expr.Expr {
			// One interval, not two independent events: 0.75 + 0.76 − 1
			// ≈ 0.51 against the true 0.50 (the product would say 0.57).
			return expr.And(
				expr.Ge(plan.C(s, "u"), expr.Int(25)),
				expr.Lt(plan.C(s, "u"), expr.Int(75)))
		}, 48, 53, false},
		{"impossible-high", func(s []plan.ColDef) expr.Expr {
			return expr.Gt(plan.C(s, "u"), expr.Int(1000))
		}, 0, 0, true},
		{"impossible-eq", func(s []plan.ColDef) expr.Expr {
			return expr.Eq(plan.C(s, "u"), expr.Int(-5))
		}, 0, 0, true},
		{"not-impossible-is-all", func(s []plan.ColDef) expr.Expr {
			return expr.Not(expr.Gt(plan.C(s, "u"), expr.Int(1000)))
		}, 90, 100, false},
		{"in-list", func(s []plan.ColDef) expr.Expr {
			return expr.In(plan.C(s, "u"), expr.Int(3), expr.Int(4), expr.Int(5000))
		}, 1, 4, false},
		{"in-all-out-of-range", func(s []plan.ColDef) expr.Expr {
			return expr.In(plan.C(s, "u"), expr.Int(5000), expr.Int(6000))
		}, 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := orderOne(t, tab, []string{"u"}, tc.filter)
			if p.Empty != tc.wantEmpt {
				t.Fatalf("Empty = %v, want %v", p.Empty, tc.wantEmpt)
			}
			if c := p.EstCard(0); c < tc.lo || c > tc.hi {
				t.Errorf("EstCard = %.2f, want in [%g, %g]", c, tc.lo, tc.hi)
			}
		})
	}
}

// TestIntervalEstimate: a lower and an upper literal bound on one column
// are one interval however the conjunction nests (Scan.Where chains ANDs),
// the tightest bound per side wins, a disjoint interval keeps one distinct
// value, bounds on different columns stay independent, and parameter
// bounds keep the independent default.
func TestIntervalEstimate(t *testing.T) {
	tab := intTable("iv", []string{"u", "v"}, [][]int64{seq(1000), seq(1000)})
	u := func(s []plan.ColDef) expr.Expr { return plan.C(s, "u") }
	cases := []struct {
		name   string
		filter func(s []plan.ColDef) expr.Expr
		lo, hi float64
	}{
		{"nested", func(s []plan.ColDef) expr.Expr {
			return expr.And(expr.And(expr.Ge(u(s), expr.Int(100)), expr.Ge(plan.C(s, "v"), expr.Int(0))),
				expr.Lt(u(s), expr.Int(200)))
		}, 95, 105},
		{"flipped", func(s []plan.ColDef) expr.Expr {
			return expr.And(expr.Le(expr.Int(100), u(s)), expr.Gt(expr.Int(200), u(s)))
		}, 95, 105},
		{"tightest", func(s []plan.ColDef) expr.Expr {
			return expr.And(expr.Ge(u(s), expr.Int(100)), expr.Ge(u(s), expr.Int(150)),
				expr.Lt(u(s), expr.Int(200)))
		}, 45, 55},
		{"disjoint", func(s []plan.ColDef) expr.Expr {
			return expr.And(expr.Ge(u(s), expr.Int(800)), expr.Lt(u(s), expr.Int(200)))
		}, 1, 1},
		{"two-columns", func(s []plan.ColDef) expr.Expr {
			return expr.And(expr.Ge(u(s), expr.Int(500)), expr.Lt(plan.C(s, "v"), expr.Int(500)))
		}, 240, 260},
		{"params", func(s []plan.ColDef) expr.Expr {
			return expr.And(expr.Ge(u(s), expr.ParamRef(0, expr.TInt)),
				expr.Lt(u(s), expr.ParamRef(1, expr.TInt)))
		}, 1000.0 / 9, 1000.0 / 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := orderOne(t, tab, []string{"u", "v"}, tc.filter)
			if c := p.EstCard(0); c < tc.lo-1e-9 || c > tc.hi+1e-9 {
				t.Errorf("EstCard = %.2f, want in [%g, %g]", c, tc.lo, tc.hi)
			}
		})
	}
}

func TestCardinalityDict(t *testing.T) {
	s := storage.NewColumn("s", storage.String)
	for i := 0; i < 100; i++ {
		s.AppendString([]string{"aa", "ab", "ba", "bb"}[i%4])
	}
	v := storage.NewColumn("w", storage.Int64)
	for i := 0; i < 100; i++ {
		v.AppendInt64(int64(i))
	}
	tab := storage.NewTable("cd", s, v)
	tab.BuildDicts()
	tab.BuildZoneMaps(storage.DefaultZoneBlockRows)

	cases := []struct {
		name     string
		filter   func(sch []plan.ColDef) expr.Expr
		lo, hi   float64
		wantEmpt bool
	}{
		{"eq-present", func(sc []plan.ColDef) expr.Expr {
			return expr.Eq(plan.C(sc, "s"), expr.Str("ab"))
		}, 20, 30, false}, // 1/NDV = 1/4
		{"eq-absent", func(sc []plan.ColDef) expr.Expr {
			return expr.Eq(plan.C(sc, "s"), expr.Str("zz"))
		}, 0, 0, true},
		{"like-prefix", func(sc []plan.ColDef) expr.Expr {
			return expr.Like(plan.C(sc, "s"), "a%")
		}, 40, 60, false}, // 2 of 4 codes
		{"like-prefix-absent", func(sc []plan.ColDef) expr.Expr {
			return expr.Like(plan.C(sc, "s"), "zz%")
		}, 0, 0, true},
		{"lt-string", func(sc []plan.ColDef) expr.Expr {
			return expr.Lt(plan.C(sc, "s"), expr.Str("b"))
		}, 40, 60, false}, // codes below LowerBound("b"): aa, ab
		{"in-one-hit", func(sc []plan.ColDef) expr.Expr {
			return expr.In(plan.C(sc, "s"), expr.Str("ba"), expr.Str("zz"))
		}, 20, 30, false},
		{"in-no-hit", func(sc []plan.ColDef) expr.Expr {
			return expr.In(plan.C(sc, "s"), expr.Str("zz"), expr.Str("yy"))
		}, 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := orderOne(t, tab, []string{"s", "w"}, tc.filter)
			if p.Empty != tc.wantEmpt {
				t.Fatalf("Empty = %v, want %v", p.Empty, tc.wantEmpt)
			}
			if c := p.EstCard(0); c < tc.lo || c > tc.hi {
				t.Errorf("EstCard = %.2f, want in [%g, %g]", c, tc.lo, tc.hi)
			}
		})
	}
}

// starGraph builds fact(1000 rows; k1 uniform 0..99, k2 uniform 0..9)
// joining dimension da (a_k unique 0..99, filtered to ~10 rows) and
// dimension db (b_k unique 0..9, unfiltered).
func starGraph() *opt.Logical {
	rng := rand.New(rand.NewSource(3))
	k1 := make([]int64, 1000)
	k2 := make([]int64, 1000)
	for i := range k1 {
		k1[i] = int64(rng.Intn(100))
		k2[i] = int64(rng.Intn(10))
	}
	f := intTable("f", []string{"f_k1", "f_k2"}, [][]int64{k1, k2})
	da := intTable("da", []string{"a_k", "a_v"}, [][]int64{seq(100), seq(100)})
	db := intTable("db", []string{"b_k"}, [][]int64{seq(10)})
	daRel := opt.Relation{Name: "da", Table: da, Cols: []string{"a_k", "a_v"}}
	daRel.Filter = expr.Lt(plan.C(plan.NewScan(da, "a_k", "a_v").Schema(), "a_v"), expr.Int(10))
	return &opt.Logical{
		Name: "star",
		Graph: &opt.Graph{
			Rels: []opt.Relation{
				{Name: "f", Table: f, Cols: []string{"f_k1", "f_k2"}},
				daRel,
				{Name: "db", Table: db, Cols: []string{"b_k"}},
			},
			Edges: []opt.Edge{
				{L: 0, LCol: "f_k1", R: 1, RCol: "a_k"},
				{L: 0, LCol: "f_k2", R: 2, RCol: "b_k"},
			},
		},
	}
}

func TestGreedyOrderGolden(t *testing.T) {
	p, err := opt.Order(starGraph())
	if err != nil {
		t.Fatal(err)
	}
	// The selective dimension (est ~10 rows, intermediate ~100) must be
	// built before the unselective one (intermediate ~1000); the fact
	// table is the probe root.
	if got := strings.Join(p.OrderNames(), ","); got != "f,da,db" {
		t.Fatalf("order = %s, want f,da,db", got)
	}
	if p.Empty {
		t.Fatal("star graph is not empty")
	}
	// Estimated cards: fact unfiltered, da ~10% of 100.
	if c := p.EstCard(0); c != 1000 {
		t.Errorf("fact card = %.1f, want 1000", c)
	}
	if c := p.EstCard(1); c < 5 || c > 15 {
		t.Errorf("da card = %.1f, want ~10", c)
	}
	// Join.Est must carry the build-side estimates into the plan.
	joins := collectJoins(p.Root)
	if len(joins) != 2 {
		t.Fatalf("expected 2 joins, got %d", len(joins))
	}
	for _, j := range joins {
		if j.Est <= 0 {
			t.Errorf("join of %s has no Est", j.Build.(*plan.Scan).Table.Name)
		}
	}
}

// TestBuildSmallerInput: a two-relation join builds its smaller estimated
// input whatever order the relations are listed in — the two orders
// produce the same intermediate, so only the build weight separates them.
// A filter decides by the estimate, not the table size.
func TestBuildSmallerInput(t *testing.T) {
	k := make([]int64, 1000)
	for i := range k {
		k[i] = int64(i % 100)
	}
	big := intTable("big", []string{"b_k", "b_v"}, [][]int64{k, seq(1000)})
	small := intTable("small", []string{"s_k"}, [][]int64{seq(100)})
	bigFiltered := opt.Relation{Name: "big", Table: big, Cols: []string{"b_k", "b_v"},
		Filter: expr.Lt(plan.C(plan.NewScan(big, "b_k", "b_v").Schema(), "b_v"), expr.Int(50))}
	cases := []struct {
		name  string
		big   opt.Relation
		build string
	}{
		{"unfiltered", opt.Relation{Name: "big", Table: big, Cols: []string{"b_k", "b_v"}}, "small"},
		{"filtered", bigFiltered, "big"},
	}
	for _, tc := range cases {
		for _, swap := range []bool{false, true} {
			rels := []opt.Relation{tc.big, {Name: "small", Table: small, Cols: []string{"s_k"}}}
			edge := opt.Edge{L: 0, LCol: "b_k", R: 1, RCol: "s_k"}
			if swap {
				rels[0], rels[1] = rels[1], rels[0]
				edge = opt.Edge{L: 0, LCol: "s_k", R: 1, RCol: "b_k"}
			}
			p, err := opt.Order(&opt.Logical{Name: "two", Graph: &opt.Graph{Rels: rels, Edges: []opt.Edge{edge}}})
			if err != nil {
				t.Fatal(err)
			}
			if got := p.OrderNames()[1]; got != tc.build {
				t.Errorf("%s, FROM order swapped=%v: builds %s, want %s (order %v)",
					tc.name, swap, got, tc.build, p.OrderNames())
			}
		}
	}
}

func TestEmptyEarlyExit(t *testing.T) {
	lg := starGraph()
	// Make da provably empty: a_v ranges 0..99, so < -1 is impossible.
	daSchema := plan.NewScan(lg.Graph.Rels[1].Table, "a_k", "a_v").Schema()
	lg.Graph.Rels[1].Filter = expr.Lt(plan.C(daSchema, "a_v"), expr.Int(-1))
	p, err := opt.Order(lg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty {
		t.Fatal("expected provably-empty plan")
	}
	if c := p.EstCard(1); c != 0 {
		t.Fatalf("empty relation card = %.1f, want 0", c)
	}
	rows, err := volcano.Run(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty plan produced %d rows", len(rows))
	}
}

// collectJoins walks a physical tree gathering its hash joins.
func collectJoins(n plan.Node) []*plan.Join {
	var out []*plan.Join
	if j, ok := n.(*plan.Join); ok {
		out = append(out, j)
	}
	for _, c := range n.Children() {
		out = append(out, collectJoins(c)...)
	}
	return out
}

// buildOf returns the join whose build side scans the named table.
func buildOf(n plan.Node, table string) *plan.Join {
	for _, j := range collectJoins(n) {
		if s, ok := j.Build.(*plan.Scan); ok && s.Table.Name == table {
			return j
		}
	}
	return nil
}

// TestObserveReplan drives the adaptive feedback loop without the
// execution engine: the misestimation workload orders the skewed
// dimension first; feeding back its true build cardinality flips the
// order, and feeding back a confirming observation does not.
func TestObserveReplan(t *testing.T) {
	fact, dimA, dimB := synth.MisestimateTables(4000)
	p, err := opt.Order(synth.MisestimateLogical(fact, dimA, dimB))
	if err != nil {
		t.Fatal(err)
	}
	names := p.OrderNames()
	pos := func(n string) int {
		for i, x := range names {
			if x == n {
				return i
			}
		}
		return -1
	}
	if pos("mdima") > pos("mdimb") {
		t.Fatalf("order %v: expected the misestimated mdima first", names)
	}
	ja := buildOf(p.Root, "mdima")
	if ja == nil {
		t.Fatal("no join builds mdima")
	}
	trueA := int64(float64(dimA.Rows()) * 0.9) // ~99% pass the skewed filter
	if ja.Est >= trueA/8 {
		t.Fatalf("mdima Est = %d — not misestimated vs ~%d", ja.Est, trueA)
	}

	// Confirming observation: order unchanged, no new plan.
	p2, _ := opt.Order(synth.MisestimateLogical(fact, dimA, dimB))
	j2 := buildOf(p2.Root, "mdima")
	p2.Observe(j2, j2.Est)
	if root, changed := p2.Replan(); changed {
		t.Fatalf("confirming observation changed the order: %v", root)
	}

	// Correcting observation: mdimb must move ahead of mdima.
	p.Observe(ja, trueA)
	root, changed := p.Replan()
	if !changed {
		t.Fatal("correcting observation did not change the order")
	}
	names = p.OrderNames()
	if pos("mdimb") > pos("mdima") {
		t.Fatalf("replanned order %v: expected mdimb first", names)
	}
	if root != p.Root {
		t.Fatal("Replan root mismatch")
	}
	// The new plan's mdima join must carry the observed cardinality.
	if ja2 := buildOf(root, "mdima"); ja2 == nil || ja2.Est != trueA {
		t.Fatalf("observed cardinality not carried into the new plan")
	}
}

// canonRows renders a volcano result with columns sorted by name and rows
// sorted, so results are comparable across join orders (the join output
// column order depends on the order).
func canonRows(rows [][]expr.Datum, schema []plan.ColDef) string {
	idx := make([]int, len(schema))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return schema[idx[a]].Name < schema[idx[b]].Name })
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, c := range idx {
			fmt.Fprintf(&sb, "%d|%q|%g|", r[c].I, r[c].S, r[c].F)
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// randLogical builds a random star/chain/cycle graph over fresh uniform
// tables with optional uniform filters.
func randLogical(rng *rand.Rand, shape string, n, rows, dom int) *opt.Logical {
	rels := make([]opt.Relation, n)
	for i := range rels {
		name := fmt.Sprintf("g%d", i)
		tab := synth.GraphTable(name, rows, dom, rng.Int63())
		cols := []string{name + "_j0", name + "_j1", name + "_v"}
		rels[i] = opt.Relation{Name: name, Table: tab, Cols: cols}
		if rng.Intn(2) == 0 {
			// v is uniform over [0, 1000): the estimate is near-exact.
			cut := int64(100 + rng.Intn(900))
			sch := plan.NewScan(tab, cols...).Schema()
			rels[i].Filter = expr.Lt(plan.C(sch, name+"_v"), expr.Int(cut))
		}
	}
	// Column assignment is deterministic so no edge is transitively
	// implied by the others (e.g. a cycle closed over the same columns):
	// the property being tested is that the independence model holds on
	// independent uniform data.
	jcol := func(i, which int) string { return fmt.Sprintf("g%d_j%d", i, which) }
	var edges []opt.Edge
	switch shape {
	case "star":
		for i := 1; i < n; i++ {
			edges = append(edges, opt.Edge{L: 0, LCol: jcol(0, i%2), R: i, RCol: jcol(i, 0)})
		}
	case "chain":
		for i := 1; i < n; i++ {
			edges = append(edges, opt.Edge{L: i - 1, LCol: jcol(i-1, 1), R: i, RCol: jcol(i, 0)})
		}
	default: // cycle: chain plus a closing edge over otherwise-unused columns
		for i := 1; i < n; i++ {
			edges = append(edges, opt.Edge{L: i - 1, LCol: jcol(i-1, 1), R: i, RCol: jcol(i, 0)})
		}
		edges = append(edges, opt.Edge{L: n - 1, LCol: jcol(n-1, 1), R: 0, RCol: jcol(0, 0)})
	}
	return &opt.Logical{Name: shape, Graph: &opt.Graph{Rels: rels, Edges: edges}}
}

// TestRandomGraphProperty checks, over random graphs of every shape, that
// (a) the optimizer's plan and random valid orders agree with the volcano
// oracle row-for-row, and (b) on uniform data the estimated join
// cardinality is within a constant factor of the truth.
func TestRandomGraphProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shapes := []string{"star", "chain", "cycle"}
	iters := 12
	if testing.Short() {
		iters = 6
	}
	for iter := 0; iter < iters; iter++ {
		shape := shapes[iter%len(shapes)]
		n := 3 + rng.Intn(2)
		// dom ~ rows/2 keeps per-join fanout near 2, so intermediates stay
		// small enough for the volcano oracle while estimates stay testable.
		nrows := 120 + rng.Intn(120)
		lg := randLogical(rng, shape, n, nrows, nrows/2)
		p, err := opt.Order(lg)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, shape, err)
		}
		rows, err := volcano.Run(p.Root)
		if err != nil {
			t.Fatalf("iter %d (%s): volcano: %v", iter, shape, err)
		}
		want := canonRows(rows, p.Root.Schema())
		for ri := 0; ri < 2; ri++ {
			root, err := opt.RandomOrder(lg, rng.Intn)
			if err != nil {
				t.Fatalf("iter %d: RandomOrder: %v", iter, err)
			}
			got, err := volcano.Run(root)
			if err != nil {
				t.Fatalf("iter %d: volcano(random): %v", iter, err)
			}
			if canonRows(got, root.Schema()) != want {
				t.Fatalf("iter %d (%s): random order diverged from optimizer order", iter, shape)
			}
		}
		// Estimation bound: uniform independent columns, so the model's
		// assumptions hold; allow a constant factor plus additive noise.
		est := p.EstJoinCard()
		actual := float64(len(rows))
		const factor, slack = 8.0, 64.0
		if est > factor*actual+slack || actual > factor*est+slack {
			t.Errorf("iter %d (%s): estimated join card %.1f vs actual %.0f — outside x%g+%g",
				iter, shape, est, actual, factor, slack)
		}
	}
}

// FuzzJoinGraph decodes arbitrary bytes into a small join graph and runs
// the orderer: it must never panic, and any order it produces must be a
// permutation with every prefix connected.
func FuzzJoinGraph(f *testing.F) {
	const nTables = 4
	tables := make([]*storage.Table, nTables)
	for i := range tables {
		tables[i] = synth.GraphTable(fmt.Sprintf("z%d", i), 64, 8, int64(i+1))
	}
	f.Add([]byte{2, 0, 0, 1, 1})
	f.Add([]byte{3, 1, 0, 1, 9, 1, 2, 3})
	f.Add([]byte{4, 0, 0, 1, 0, 1, 2, 200, 2, 3, 7, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0])%3 // 2..4 relations
		rels := make([]opt.Relation, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("z%d", i)
			rels[i] = opt.Relation{Name: name, Table: tables[i],
				Cols: []string{name + "_j0", name + "_j1", name + "_v"}}
		}
		var edges []opt.Edge
		for i := 1; i+2 < len(data); i += 3 {
			l, r, sel := int(data[i])%n, int(data[i+1])%n, data[i+2]
			e := opt.Edge{L: l, R: r,
				LCol: fmt.Sprintf("z%d_j%d", l, sel&1),
				RCol: fmt.Sprintf("z%d_j%d", r, (sel>>1)&1)}
			edges = append(edges, e)
			if sel&4 != 0 {
				// Mix in a filter (possibly impossible: v ranges 0..999).
				sch := plan.NewScan(tables[l], rels[l].Cols...).Schema()
				rels[l].Filter = expr.Lt(plan.C(sch, rels[l].Name+"_v"),
					expr.Int(int64(sel)*8-64))
			}
		}
		lg := &opt.Logical{Name: "fuzz", Graph: &opt.Graph{Rels: rels, Edges: edges}}
		p, err := opt.Order(lg)
		if err != nil {
			return // rejected graphs (disconnected, self-edges) are fine
		}
		checkOrder := func(order []int, label string) {
			if len(order) != n {
				t.Fatalf("%s: order %v is not a permutation of %d relations", label, order, n)
			}
			seen := make([]bool, n)
			for i, r := range order {
				if r < 0 || r >= n || seen[r] {
					t.Fatalf("%s: invalid order %v", label, order)
				}
				seen[r] = true
				if i == 0 {
					continue
				}
				connected := false
				for _, e := range edges {
					other := -1
					if e.L == r {
						other = e.R
					} else if e.R == r {
						other = e.L
					}
					if other < 0 {
						continue
					}
					for _, prev := range order[:i] {
						if prev == other {
							connected = true
						}
					}
				}
				if !connected {
					t.Fatalf("%s: order %v joins relation %d with no connecting edge", label, order, r)
				}
			}
		}
		checkOrder(p.JoinOrder, "Order")
		if _, err := opt.RandomOrder(lg, rand.New(rand.NewSource(int64(len(data)))).Intn); err != nil {
			t.Fatalf("RandomOrder failed on a graph Order accepted: %v", err)
		}
	})
}
