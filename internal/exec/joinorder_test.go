package exec

import (
	"context"
	"math/rand"
	"testing"

	"aqe/internal/opt"
	"aqe/internal/synth"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

// joinOrderQueries are the multi-join TPC-H queries with logical forms.
var joinOrderQueries = []int{3, 5, 10}

// TestJoinOrderInvariance is the differential oracle for the optimizer:
// for each multi-join TPC-H query, the hand-built plan, the optimizer's
// plan, and several random valid join orders must produce bit-identical
// results under every execution mode.
func TestJoinOrderInvariance(t *testing.T) {
	cat := diffCat()
	modes := []Mode{ModeBytecode, ModeNative, ModeOptimized, ModeAdaptive, ModeIRInterp}
	want := make(map[int]string)
	for _, mode := range modes {
		e := New(Options{Workers: 4, Mode: mode, Cost: Native(), MorselSize: 512})
		for _, qn := range joinOrderQueries {
			hand, err := e.RunPlan(tpch.Query(cat, qn).Stages[0].Build(nil), "hand")
			if err != nil {
				t.Fatalf("%v Q%d hand: %v", mode, qn, err)
			}
			sum := checksum(hand)
			if mode == modes[0] {
				want[qn] = sum
			} else if sum != want[qn] {
				t.Errorf("%v Q%d: hand checksum %s, want %s", mode, qn, sum, want[qn])
			}

			lg, ok := tpch.Logical(cat, qn)
			if !ok {
				t.Fatalf("Q%d has no logical form", qn)
			}
			prep, err := opt.Order(lg)
			if err != nil {
				t.Fatalf("Q%d: %v", qn, err)
			}
			res, err := e.RunPlan(prep.Root, "opt")
			if err != nil {
				t.Fatalf("%v Q%d opt: %v", mode, qn, err)
			}
			if s := checksum(res); s != want[qn] {
				t.Errorf("%v Q%d: optimizer order %v checksum %s, want %s",
					mode, qn, prep.OrderNames(), s, want[qn])
			}

			rng := rand.New(rand.NewSource(int64(qn)*31 + 7))
			for ri := 0; ri < 3; ri++ {
				root, err := opt.RandomOrder(lg, rng.Intn)
				if err != nil {
					t.Fatalf("Q%d random: %v", qn, err)
				}
				res, err := e.RunPlan(root, "rand")
				if err != nil {
					t.Fatalf("%v Q%d random %d: %v", mode, qn, ri, err)
				}
				if s := checksum(res); s != want[qn] {
					t.Errorf("%v Q%d: random order %d checksum %s, want %s",
						mode, qn, ri, s, want[qn])
				}
			}
		}
	}
}

// TestJoinOrderInvarianceForcedReplan re-runs the oracle with replanning
// force-triggered at every pipeline breaker (threshold below the minimum
// possible misestimate factor): results must not move no matter how many
// times the plan is rebuilt mid-query.
func TestJoinOrderInvarianceForcedReplan(t *testing.T) {
	cat := diffCat()
	ctx := context.Background()
	modes := []Mode{ModeBytecode, ModeNative, ModeOptimized, ModeAdaptive, ModeIRInterp}
	want := make(map[int]string)
	for _, qn := range joinOrderQueries {
		base := New(Options{Workers: 4, Mode: ModeBytecode, Cost: Native(), MorselSize: 512})
		res, err := base.RunPlan(tpch.Query(cat, qn).Stages[0].Build(nil), "hand")
		if err != nil {
			t.Fatal(err)
		}
		want[qn] = checksum(res)
	}
	for _, mode := range modes {
		e := New(Options{Workers: 4, Mode: mode, Cost: Native(), MorselSize: 512,
			ReplanThreshold: 0.5, MaxReplans: 4})
		for _, qn := range joinOrderQueries {
			lg, _ := tpch.Logical(cat, qn)
			prep, err := opt.Order(lg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunPlanOpts(ctx, prep.Root, "forced", RunOpts{Replan: prep})
			if err != nil {
				t.Fatalf("%v Q%d forced replan: %v", mode, qn, err)
			}
			if s := checksum(res); s != want[qn] {
				t.Errorf("%v Q%d: forced-replan checksum %s, want %s (replans=%d, order %v)",
					mode, qn, s, want[qn], res.Stats.Replans, prep.OrderNames())
			}
		}
	}
}

// TestMisestimateReplans is the end-to-end adaptive test: the skewed
// workload's first build observes ~10^4 more rows than estimated, the
// engine replans mid-query, and the result still matches the volcano
// oracle bit-for-bit.
func TestMisestimateReplans(t *testing.T) {
	fact, dimA, dimB := synth.MisestimateTables(30000)
	lg := synth.MisestimateLogical(fact, dimA, dimB)

	fresh, err := opt.Order(lg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := volcano.Run(fresh.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRows) != 1 {
		t.Fatalf("scalar aggregate returned %d rows", len(wantRows))
	}

	prep, err := opt.Order(lg)
	if err != nil {
		t.Fatal(err)
	}
	names := prep.OrderNames()
	if len(names) != 3 || names[1] != "mdima" {
		t.Fatalf("initial order %v: expected the misestimated mdima built first", names)
	}
	e := New(Options{Workers: 4, Mode: ModeOptimized, Cost: Native(), MorselSize: 512})
	res, err := e.RunPlanOpts(context.Background(), prep.Root, "misestimate", RunOpts{Replan: prep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Replans < 1 {
		t.Fatalf("Stats.Replans = %d, want >= 1 (EstCardErr %.1f)",
			res.Stats.Replans, res.Stats.EstCardErr)
	}
	if res.Stats.EstCardErr < DefaultReplanThreshold {
		t.Errorf("EstCardErr = %.1f, want >= %g", res.Stats.EstCardErr, DefaultReplanThreshold)
	}
	if got := prep.OrderNames(); got[1] != "mdimb" {
		t.Errorf("replanned order %v: expected mdimb built first", got)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != wantRows[0][0].I ||
		res.Rows[0][1].I != wantRows[0][1].I {
		t.Fatalf("replanned result %v, volcano %v", res.Rows, wantRows)
	}

	// The same query without a replanner must agree too (and not replan).
	plain, err := opt.Order(lg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.RunPlanCtx(context.Background(), plain.Root, "misestimate-plain")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Replans != 0 {
		t.Errorf("plain run replanned %d times", res2.Stats.Replans)
	}
	if res2.Rows[0][0].I != wantRows[0][0].I {
		t.Fatalf("plain result %v, volcano %v", res2.Rows, wantRows)
	}
}
