// pgadmin reproduces the paper's §I motivation: interactive tools fire
// dozens of small metadata-style queries where compilation latency
// dominates execution. With the paper-calibrated LLVM cost model, the
// static compiling modes waste almost all their time compiling, while
// adaptive execution answers from the bytecode interpreter immediately.
package main

import (
	"fmt"
	"log"
	"time"

	"aqe"
)

// metadataQueries mimics a tool inspecting the catalog: joins over the
// small dimension tables with selective filters (the paper's pg_inherits/
// pg_class example touches only a handful of tuples).
var metadataQueries = []string{
	`SELECT n_name, r_name FROM nation, region
	 WHERE n_regionkey = r_regionkey ORDER BY n_name`,
	`SELECT r_name, count(*) AS nations FROM region, nation
	 WHERE r_regionkey = n_regionkey GROUP BY r_name ORDER BY r_name`,
	`SELECT s_name, n_name FROM supplier, nation
	 WHERE s_nationkey = n_nationkey AND s_acctbal > 9900.0 ORDER BY s_name LIMIT 10`,
	`SELECT n_name, count(*) AS suppliers FROM nation, supplier
	 WHERE n_nationkey = s_nationkey GROUP BY n_name ORDER BY suppliers DESC LIMIT 5`,
	`SELECT c_mktsegment, count(*) AS customers, avg(c_acctbal) AS bal
	 FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment`,
}

func run(mode aqe.Mode, cost *aqe.CostModel, rounds int) time.Duration {
	db := aqe.Open(aqe.Options{Workers: 4, Mode: mode, Cost: cost})
	db.LoadTPCH(0.01)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range metadataQueries {
			if _, err := db.ExecSQL(q); err != nil {
				log.Fatal(err)
			}
		}
	}
	return time.Since(start)
}

func main() {
	const rounds = 4
	fmt.Printf("interactive metadata workload: %d queries x %d rounds (LLVM-scale compile costs)\n",
		len(metadataQueries), rounds)
	paper := aqe.PaperCosts()
	for _, m := range []aqe.Mode{aqe.ModeOptimized, aqe.ModeNative,
		aqe.ModeBytecode, aqe.ModeAdaptive} {
		d := run(m, paper, rounds)
		fmt.Printf("  %-12v %8.1f ms total (%5.2f ms/query)\n",
			m, d.Seconds()*1e3, d.Seconds()*1e3/float64(rounds*len(metadataQueries)))
	}
	fmt.Println("\nadaptive/bytecode answer immediately; the static compiled modes pay")
	fmt.Println("the paper's 'compilation takes 50x longer than execution' tax on every query.")
}
