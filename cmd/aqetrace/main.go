// Command aqetrace renders the Fig. 14-style execution trace of one TPC-H
// query under a chosen execution mode.
//
//	aqetrace -q 11 -sf 0.1 -mode adaptive -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"aqe/internal/exec"
	"aqe/internal/opt"
	"aqe/internal/synth"
	"aqe/internal/tpch"
)

var (
	qn     = flag.Int("q", 11, "TPC-H query number (1-22); 0 with -opt traces the synthetic misestimated star query")
	sf     = flag.Float64("sf", 0.1, "scale factor")
	mode   = flag.String("mode", "adaptive", "adaptive|bytecode|native|optimized|ir-interp")
	wrk    = flag.Int("workers", 4, "worker threads")
	useOpt = flag.Bool("opt", false, "run the cost-based join order with adaptive replanning (queries with a logical form: 3, 5, 10)")
	thresh = flag.Float64("replanthresh", 0, "misestimate factor that triggers a mid-query replan (0 = engine default; <=1 forces a replan check at every breaker)")
)

func main() {
	flag.Parse()
	m, err := exec.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	cat := tpch.Gen(*sf)
	eng := exec.New(exec.Options{Workers: *wrk, Mode: m, Cost: exec.Paper(),
		Trace: true, MorselSize: 1024, ReplanThreshold: *thresh})
	var merged *exec.Trace
	if *useOpt {
		var lg *opt.Logical
		if *qn == 0 {
			// The synthetic misestimated star query: the one workload
			// guaranteed to show an 'R' (mid-query replan) on the trace.
			factRows := int(1.6e7 * *sf)
			if factRows < 20000 {
				factRows = 20000
			}
			lg = synth.MisestimateLogical(synth.MisestimateTables(factRows))
		} else {
			var ok bool
			lg, ok = tpch.Logical(cat, *qn)
			if !ok {
				log.Fatalf("Q%d has no logical join-graph form (try 3, 5, 10, or 0 for the synthetic misestimate query)", *qn)
			}
		}
		prep, err := opt.Order(lg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.RunPlanReplan(context.Background(), prep.Root, lg.Name, prep)
		if err != nil {
			log.Fatal(err)
		}
		merged = res.Trace
		fmt.Printf("join order: %v (%d replan(s))\n", prep.OrderNames(), res.Stats.Replans)
	} else {
		res, err := eng.Run(tpch.Query(cat, *qn))
		if err != nil {
			log.Fatal(err)
		}
		merged = res.Trace
	}
	if *useOpt && *qn == 0 {
		fmt.Printf("synthetic misestimated star query, SF %g, %s mode, %d workers\n\n", *sf, *mode, *wrk)
	} else {
		fmt.Printf("TPC-H Q%d, SF %g, %s mode, %d workers\n\n", *qn, *sf, *mode, *wrk)
	}
	fmt.Print(merged.Gantt(110))

	// Admission-queue waits ('A' on the compile lane above).
	first := true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvAdmit {
			continue
		}
		if first {
			fmt.Println("\nadmission queue:")
			first = false
		}
		fmt.Printf("  %s: queued %.3f ms before execution\n",
			ev.Label, (ev.End-ev.Start).Seconds()*1e3)
	}

	// Cancellations ('X' on the compile lane above).
	first = true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvCancel {
			continue
		}
		if first {
			fmt.Println("\ncancellations:")
			first = false
		}
		fmt.Printf("  %s: cancelled at %.3f ms\n",
			ev.Label, ev.Start.Seconds()*1e3)
	}

	// Zone-map pruning ('Z' on the compile lane above).
	first = true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvPrune {
			continue
		}
		if first {
			fmt.Println("\nzone-map pruning:")
			first = false
		}
		fmt.Printf("  pipeline %d (%s): %d block(s) / %d tuples skipped\n",
			ev.Pipeline, ev.Label, ev.Parts, ev.Tuples)
	}

	// Dictionary-code rewrites ('D' on the compile lane above).
	first = true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvDictRewrite {
			continue
		}
		if first {
			fmt.Println("\ndictionary rewrites:")
			first = false
		}
		fmt.Printf("  pipeline %d (%s): %d string op(s) compiled against codes\n",
			ev.Pipeline, ev.Label, ev.Tuples)
	}

	// Mid-query replans ('R' on the compile lane above).
	first = true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvReplan {
			continue
		}
		if first {
			fmt.Println("\nmid-query replans:")
			first = false
		}
		fmt.Printf("  pipeline %d (%s): observed %d build tuples at the breaker — replanned at %.3f ms\n",
			ev.Pipeline, ev.Label, ev.Tuples, ev.Start.Seconds()*1e3)
	}

	// Native (tier-6) installs ('N' on the compile lane above).
	first = true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvNative {
			continue
		}
		if first {
			fmt.Println("\nnative-code installs:")
			first = false
		}
		scope := "whole module (static mode)"
		if ev.Pipeline >= 0 {
			scope = fmt.Sprintf("pipeline %d (%s)", ev.Pipeline, ev.Label)
		}
		fmt.Printf("  %s: machine code assembled in %.3f ms\n",
			scope, (ev.End-ev.Start).Seconds()*1e3)
	}

	// Pipeline-breaker finalizations ('F' on the compile lane above).
	first = true
	for _, ev := range merged.Events() {
		if ev.Kind != exec.EvFinalize {
			continue
		}
		if first {
			fmt.Println("\nbreaker finalizations:")
			first = false
		}
		fmt.Printf("  pipeline %d (%s): %.3f ms, %d partition(s), %d tuples\n",
			ev.Pipeline, ev.Label, (ev.End-ev.Start).Seconds()*1e3, ev.Parts, ev.Tuples)
	}
}
