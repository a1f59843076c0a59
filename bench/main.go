// Command bench is the repository's benchmark: wire request in -> last
// result byte out on five workloads, and a per-layer table measured from
// outside the program. See README.md; BENCHMARK.json at the repository
// root describes it to the driver.
//
//	bash bench/run.sh --workload tpch_warm --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --trace 1
//	bash bench/run.sh --workload all --repeat 5 --out bench/out/a
//	bash bench/run.sh --compare bench/out/a,bench/out/b
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

var (
	workloadFlag = flag.String("workload", "", "workload to run, or 'all' (each in a process of its own)")
	seedFlag     = flag.Int64("seed", 1, "workload seed: literals, statement order, arrival times")
	secondsFlag  = flag.Float64("seconds", 20, "how long the timed part takes on the seed commit; it fixes the request count")
	traceFlag    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics (with 'all': after the untraced one)")
	outFlag      = flag.String("out", "bench/out", "directory for the per-run JSON and trace files")
	smokeFlag    = flag.Bool("smoke", false, "test scale: SF 0.01, one pass, a 2 s service window")
	repeatFlag   = flag.Int("repeat", 0, "run N times at the same seed into <out>/run_<i>")
	compareFlag  = flag.String("compare", "", "A,B: compare two -repeat result sets against the bounds")
)

func main() {
	flag.Parse()
	if err := dispatch(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch() error {
	switch {
	case *compareFlag != "":
		a, b, ok := strings.Cut(*compareFlag, ",")
		if !ok {
			return fmt.Errorf("-compare wants two directories: A,B")
		}
		return compare(boundsFile, a, b)
	case *workloadFlag == "":
		return fmt.Errorf("-workload is required (one of %s, or all)", strings.Join(workloadNames(), ", "))
	case *repeatFlag > 0:
		for i := 0; i < *repeatFlag; i++ {
			out := filepath.Join(*outFlag, "run_"+strconv.Itoa(i))
			if err := child(*workloadFlag, *seedFlag, *traceFlag, out); err != nil {
				return err
			}
		}
		return nil
	case *workloadFlag == "all":
		// One process per workload and variant, so peak RSS, the plan
		// cache and the collector's state are each run's own. With
		// -trace 1 the traced variant follows the untraced one, and the
		// command has then printed every metric there is.
		for _, w := range workloads {
			for trace := 0; trace <= *traceFlag; trace++ {
				if err := child(w.name, *seedFlag, trace, *outFlag); err != nil {
					return err
				}
			}
		}
		return nil
	}
	w := findWorkload(*workloadFlag)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, strings.Join(workloadNames(), ", "))
	}
	fixProcs()
	var res *result
	var err error
	if *traceFlag != 0 {
		if err = os.MkdirAll(*outFlag, 0o755); err == nil {
			res, err = runTraced(w, *seedFlag, *secondsFlag, *smokeFlag, *outFlag)
		}
	} else {
		res, err = runUntraced(w, *seedFlag, *secondsFlag, *smokeFlag)
	}
	if err != nil {
		return err
	}
	return res.finish(*outFlag)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// child re-runs this binary for one workload (or 'all') and waits for it.
func child(workload string, seed int64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(*secondsFlag, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", out}
	if *smokeFlag {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	return nil
}
