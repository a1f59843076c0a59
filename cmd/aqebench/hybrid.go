package main

import (
	"fmt"

	"aqe/internal/exec"
	"aqe/internal/tpch"
)

// ---- hybrid: per-pipeline engine selection (vectorized vs compiled) ----

// hybridExp measures the three engine configurations of the §III-C
// engine-selection extension on the join-heavy TPC-H trio and the two
// synthetic regimes:
//
//   - forced-compiled: ModeOptimized — every pipeline runs the optimized
//     closure tier (the strongest portable compiled baseline).
//   - forced-vector: ModeVector — every kernel-compilable pipeline runs
//     the vectorized engine; the rest fall back to optimized closures.
//   - auto: ModeAdaptive — a pipeline longer than one morsel starts in
//     native code (bytecode where there is no native back end) and the
//     controller promotes it to the vectorized engine when its observed
//     morsel rates favour that.
//
// The claims under test: on hash-dense pipelines (hashwalk, the trio's
// probe pipelines) the vectorized engine beats the compiled tiers, on
// compute-dense pipelines (arith) the compiled tiers win, and auto lands
// within a few percent of the best forced configuration on both — without
// being told which regime it is in.
func hybridExp() {
	cat := catalog(*sfFlag)
	const reps = 3

	type workload struct {
		name string
		run  func(e *exec.Engine) (*exec.Result, error)
	}
	var wls []workload
	for _, qn := range []int{3, 5, 10} {
		q := tpch.Query(cat, qn)
		wls = append(wls, workload{name: fmt.Sprintf("Q%d", qn),
			run: func(e *exec.Engine) (*exec.Result, error) { return e.Run(q) }})
	}
	hwNode, _ := hashWalkPlan(*sfFlag)
	wls = append(wls, workload{name: "hashwalk",
		run: func(e *exec.Engine) (*exec.Result, error) { return e.RunPlan(hwNode, "hashwalk") }})
	arNode, _ := arithPlan(*sfFlag)
	wls = append(wls, workload{name: "arith",
		run: func(e *exec.Engine) (*exec.Result, error) { return e.RunPlan(arNode, "arith") }})

	configs := []struct {
		name string
		opts exec.Options
	}{
		{"compiled", exec.Options{Workers: *workers, Mode: exec.ModeOptimized, Cost: exec.Native(),
			CacheBytes: 64 << 20}},
		{"vector", exec.Options{Workers: *workers, Mode: exec.ModeVector, Cost: exec.Native(),
			CacheBytes: 64 << 20}},
		{"auto", exec.Options{Workers: *workers, Mode: exec.ModeAdaptive, Cost: exec.Native(),
			CacheBytes: 64 << 20}},
	}

	// Engines persist across reps: the forced modes compile (or stage
	// kernels) up front, so the adaptive engine gets its plan-cache warm
	// start too — the steady-state regime the within-a-few-percent claim
	// is about. Rep 1 is the cold adaptation run; best-of keeps a warm one.
	fmt.Printf("engine selection at SF %.2f, %d workers (one engine per config, best of %d)\n",
		*sfFlag, *workers, reps)
	fmt.Printf("%-10s %12s %12s %12s %10s %8s %8s %9s\n",
		"workload", "compiled[ms]", "vector[ms]", "auto[ms]", "auto/best", "v.mors", "switch", "vec/comp")
	for _, wl := range wls {
		var cells []float64
		var auto *exec.Result
		for _, cfg := range configs {
			e := exec.New(cfg.opts)
			best := (*exec.Result)(nil)
			for r := 0; r < reps+1; r++ {
				res, err := wl.run(e)
				if err != nil {
					panic(fmt.Sprintf("%s %s: %v", wl.name, cfg.name, err))
				}
				if best == nil || res.Stats.Exec < best.Stats.Exec {
					best = res
				}
			}
			cells = append(cells, ms(best.Stats.Exec))
			if cfg.name == "auto" {
				auto = best
			}
		}
		bestForced := cells[0]
		if cells[1] < bestForced {
			bestForced = cells[1]
		}
		fmt.Printf("%-10s %12.2f %12.2f %12.2f %9.2fx %8d %8d %8.2fx\n",
			wl.name, cells[0], cells[1], cells[2], cells[2]/bestForced,
			auto.Stats.VectorMorsels, auto.Stats.EngineSwitches, cells[0]/cells[1])
	}
	fmt.Println("(auto/best: adaptive exec time over the better forced engine — the §III-C")
	fmt.Println(" claim is that it stays near 1.0x in both regimes; vec/comp > 1 means the")
	fmt.Println(" vectorized engine won the workload, < 1 the compiled tiers did)")
}
