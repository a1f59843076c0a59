package tpch

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
	"aqe/internal/volcano"
)

var testCat = Gen(0.01)

func TestGenSizes(t *testing.T) {
	cases := []struct {
		table string
		min   int
	}{
		{"region", 5}, {"nation", 25}, {"supplier", 90},
		{"part", 1900}, {"partsupp", 7600}, {"customer", 1400},
		{"orders", 14000}, {"lineitem", 40000},
	}
	for _, c := range cases {
		tbl := testCat.Table(c.table)
		if tbl == nil {
			t.Fatalf("missing table %s", c.table)
		}
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
		if tbl.Rows() < c.min {
			t.Errorf("%s has %d rows, want >= %d", c.table, tbl.Rows(), c.min)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a := Gen(0.002)
	b := Gen(0.002)
	ca, cb := a.Table("lineitem"), b.Table("lineitem")
	if ca.Rows() != cb.Rows() {
		t.Fatal("row counts differ across generations")
	}
	for i := 0; i < ca.Rows(); i += 97 {
		if ca.MustCol("l_extendedprice").Int64At(i) != cb.MustCol("l_extendedprice").Int64At(i) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestLineitemSupplierConsistency(t *testing.T) {
	// Every (l_partkey, l_suppkey) must exist in partsupp, or Q9/Q20's
	// joins silently drop rows.
	ps := testCat.Table("partsupp")
	valid := make(map[[2]int64]bool, ps.Rows())
	for i := 0; i < ps.Rows(); i++ {
		valid[[2]int64{ps.MustCol("ps_partkey").Int64At(i),
			ps.MustCol("ps_suppkey").Int64At(i)}] = true
	}
	l := testCat.Table("lineitem")
	for i := 0; i < l.Rows(); i += 11 {
		k := [2]int64{l.MustCol("l_partkey").Int64At(i), l.MustCol("l_suppkey").Int64At(i)}
		if !valid[k] {
			t.Fatalf("lineitem row %d references missing partsupp %v", i, k)
		}
	}
}

// runStagesVolcano executes a multi-stage query with the volcano oracle,
// materializing stage results exactly like the engine does.
func runStagesVolcano(t *testing.T, q plan.Query) ([][]expr.Datum, []plan.ColDef) {
	t.Helper()
	prior := make(map[string]*storage.Table)
	var rows [][]expr.Datum
	var schema []plan.ColDef
	for i, st := range q.Stages {
		node := st.Build(prior)
		var err error
		rows, err = volcano.Run(node)
		if err != nil {
			t.Fatalf("%s stage %s: %v", q.Name, st.Name, err)
		}
		schema = node.Schema()
		if i < len(q.Stages)-1 {
			res := &exec.Result{Rows: rows}
			for _, c := range schema {
				res.Cols = append(res.Cols, c.Name)
				res.Types = append(res.Types, c.T)
			}
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	return rows, schema
}

func canon(rows [][]expr.Datum, types []expr.Type) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for j, d := range row {
			switch types[j].Kind {
			case expr.KFloat:
				fmt.Fprintf(&sb, "|%.5g", d.F)
			case expr.KString:
				fmt.Fprintf(&sb, "|%s", d.S)
			default:
				fmt.Fprintf(&sb, "|%d", d.I)
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// queriesExpectedNonEmpty lists queries that must return rows at SF 0.01
// with our generator. (Q2's triple filter can legitimately come up empty
// at tiny scale.)
var queriesExpectedNonEmpty = map[int]bool{
	1: true, 3: true, 4: true, 5: true, 6: true, 7: true, 9: true,
	10: true, 11: true, 12: true, 13: true, 14: true, 15: true,
	16: true, 22: true,
}

func TestAll22QueriesAgainstOracle(t *testing.T) {
	engines := map[string]*exec.Engine{
		"bytecode-w1": exec.New(exec.Options{Workers: 1, Mode: exec.ModeBytecode}),
		"bytecode-w3": exec.New(exec.Options{Workers: 3, Mode: exec.ModeBytecode}),
		"native-w2": exec.New(exec.Options{Workers: 2, Mode: exec.ModeNative,
			Cost: exec.Native()}),
		"opt-w2": exec.New(exec.Options{Workers: 2, Mode: exec.ModeOptimized,
			Cost: exec.Native()}),
		"adaptive-w2": exec.New(exec.Options{Workers: 2, Mode: exec.ModeAdaptive,
			Cost: exec.Native(), MorselSize: 512}),
	}
	for qn := 1; qn <= 22; qn++ {
		q := Query(testCat, qn)
		wantRows, schema := runStagesVolcano(t, q)
		types := make([]expr.Type, len(schema))
		for i, c := range schema {
			types[i] = c.T
		}
		want := canon(wantRows, types)
		if queriesExpectedNonEmpty[qn] && len(want) == 0 {
			t.Errorf("Q%d: oracle returned no rows at SF 0.01", qn)
		}
		for ename, e := range engines {
			res, err := e.Run(Query(testCat, qn))
			if err != nil {
				t.Errorf("Q%d [%s]: %v", qn, ename, err)
				continue
			}
			got := canon(res.Rows, res.Types)
			if len(got) != len(want) {
				t.Errorf("Q%d [%s]: %d rows, want %d", qn, ename, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("Q%d [%s]: row %d differs\n got %s\nwant %s",
						qn, ename, i, got[i], want[i])
					break
				}
			}
		}
	}
}

func TestQ1Positional(t *testing.T) {
	// Q1's sort keys (returnflag, linestatus) are unique per group, so the
	// full result must agree positionally with the oracle.
	e := exec.New(exec.Options{Workers: 2, Mode: exec.ModeBytecode})
	q := Query(testCat, 1)
	want, schema := runStagesVolcano(t, q)
	res, err := e.Run(Query(testCat, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		for j := range schema {
			switch schema[j].T.Kind {
			case expr.KFloat:
				if diff := res.Rows[i][j].F - want[i][j].F; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("row %d col %s: %v vs %v", i, schema[j].Name,
						res.Rows[i][j].F, want[i][j].F)
				}
			case expr.KString:
				if res.Rows[i][j].S != want[i][j].S {
					t.Errorf("row %d col %s differs", i, schema[j].Name)
				}
			default:
				if res.Rows[i][j].I != want[i][j].I {
					t.Errorf("row %d col %s: %d vs %d", i, schema[j].Name,
						res.Rows[i][j].I, want[i][j].I)
				}
			}
		}
	}
	// Sanity: Q1 at SF 0.01 has the classic 4 groups.
	if len(res.Rows) != 4 {
		t.Errorf("Q1 groups = %d, want 4", len(res.Rows))
	}
}

// TestTPCHBuildsSmallerInput holds the plans to the rule the paper's HyPer
// plans follow: every hash join builds its smaller input. Each join's build
// and probe children run through Volcano at SF 0.01; a build input of more
// than 100 rows and more than twice its probe input fails, and so does a
// total over all joins above 40 000 build rows.
func TestTPCHBuildsSmallerInput(t *testing.T) {
	count := func(n plan.Node) int {
		rows, err := volcano.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	total := 0
	for qn := 1; qn <= 22; qn++ {
		q := Query(testCat, qn)
		prior := make(map[string]*storage.Table)
		for _, st := range q.Stages {
			node := st.Build(prior)
			var walk func(n plan.Node)
			walk = func(n plan.Node) {
				if j, ok := n.(*plan.Join); ok {
					b, p := count(j.Build), count(j.Probe)
					total += b
					t.Logf("Q%d %s: %v join builds %d rows, probes %d", qn, st.Name, j.Kind, b, p)
					if b > 100 && b > 2*p {
						t.Errorf("Q%d %s: %v join builds %d rows against %d probe rows",
							qn, st.Name, j.Kind, b, p)
					}
				}
				for _, c := range n.Children() {
					walk(c)
				}
			}
			walk(node)
			rows, err := volcano.Run(node)
			if err != nil {
				t.Fatal(err)
			}
			res := &exec.Result{Rows: rows}
			for _, c := range node.Schema() {
				res.Cols = append(res.Cols, c.Name)
				res.Types = append(res.Types, c.T)
			}
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	t.Logf("build rows over the 22 queries: %d", total)
	if total > 40000 {
		t.Errorf("the 22 queries build %d rows, want at most 40000", total)
	}
}
