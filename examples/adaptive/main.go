// adaptive visualizes the paper's Fig. 14: the per-morsel execution trace
// of TPC-H Q11, showing all workers starting in the bytecode interpreter,
// the controller deciding to compile the two expensive partsupp pipelines
// on one worker while the others run on, and every worker switching tiers
// at the next morsel.
package main

import (
	"fmt"
	"log"

	"aqe"
	"aqe/internal/exec"
	"aqe/internal/storage"
	"aqe/internal/tpch"
)

func main() {
	cat := tpch.Gen(0.1)
	eng := exec.New(exec.Options{Workers: 4, Mode: exec.ModeAdaptive,
		Cost: exec.Paper(), Trace: true, MorselSize: 1024})

	q := tpch.Query(cat, 11)
	prior := map[string]*storage.Table{}
	var merged *exec.Trace
	for i, stg := range q.Stages {
		node := stg.Build(prior)
		res, err := eng.RunPlan(node, stg.Name)
		if err != nil {
			log.Fatal(err)
		}
		if i < len(q.Stages)-1 {
			prior[stg.Name] = res.ToTable(stg.Name)
		}
		if merged == nil {
			merged = res.Trace
		} else {
			merged.Merge(res.Trace)
		}
		for pi, lvl := range res.Stats.FinalLevels {
			fmt.Printf("stage %-8s pipeline %d finished in tier %v (machine-code compilations: %d)\n",
				stg.Name, pi, lvl, res.Stats.Compilations)
		}
	}
	fmt.Println("\nexecution trace (a/b/c… = pipelines, N = native-code install):")
	fmt.Print(merged.Gantt(100))
	_ = aqe.ModeAdaptive
}
