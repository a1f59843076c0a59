package vm_test

import (
	"testing"

	"aqe/internal/codegen"
	"aqe/internal/ir"
	"aqe/internal/rt"
	"aqe/internal/tpch"
	"aqe/internal/vm"
)

// TestTranslateAllocsDoNotScale pins the allocation profile of the cold
// compile path: verifying and translating a function allocates a fixed set
// of ID-indexed slices, not a map entry or a list per value or block. Q5's
// lineitem probe pipeline has about five times the values of the query's
// smallest pipeline and must allocate less than half as much again.
func TestTranslateAllocsDoNotScale(t *testing.T) {
	cq, err := codegen.Compile(tpch.Query(tpch.Gen(0.001), 5).Stages[0].Build(nil), rt.NewMemory(), "q5")
	if err != nil {
		t.Fatal(err)
	}
	small, large := cq.Pipelines[0].Fn, cq.Pipelines[0].Fn
	for _, pl := range cq.Pipelines {
		if pl.Fn.NumValues() < small.NumValues() {
			small = pl.Fn
		}
		if pl.Fn.NumValues() > large.NumValues() {
			large = pl.Fn
		}
	}
	allocs := func(f *ir.Function) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := f.Verify(); err != nil {
				t.Fatal(err)
			}
			if _, err := vm.Translate(f, vm.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	s, l := allocs(small), allocs(large)
	t.Logf("%d values: %.0f allocations; %d values: %.0f allocations",
		small.NumValues(), s, large.NumValues(), l)
	if large.NumValues() < 4*small.NumValues() {
		t.Fatalf("pipelines too alike to tell: %d and %d values", small.NumValues(), large.NumValues())
	}
	if l >= 1.5*s {
		t.Errorf("verify + translate allocations grow with the function: %.0f for %d values, %.0f for %d",
			s, small.NumValues(), l, large.NumValues())
	}
}
