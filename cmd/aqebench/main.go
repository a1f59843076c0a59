// Command aqebench regenerates the tables and figures of the paper's
// evaluation (§V, plus §IV-C's register-file sizes): per-experiment
// workload generation, parameter sweeps, baselines, and output in the same
// rows/series the paper reports. Everything measured after the paper lives
// in bench/ (bash bench/run.sh --workload <w> --trace 1).
//
//	aqebench -exp all            # everything at the default scale
//	aqebench -exp fig13 -maxsf 1 # the SF sweep up to SF 1
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/synth"
	"aqe/internal/tpch"
	"aqe/internal/vm"
	"aqe/internal/volcano"
)

// mustCompile code-generates a plan, panicking on codegen bugs (this is a
// benchmark driver).
func mustCompile(node plan.Node, mem *rt.Memory, name string) *codegen.Query {
	cq, err := codegen.Compile(node, mem, name)
	if err != nil {
		panic(err)
	}
	return cq
}

// experiments is the one list main, the -exp usage string and the
// unknown-name error share.
var experiments = []struct {
	name string
	fn   func()
}{
	{"fig2", fig2},
	{"fig6", fig6},
	{"fig13", fig13},
	{"fig14", fig14},
	{"fig15", fig15},
	{"table1", table1},
	{"table2", table2},
	{"regalloc", regalloc},
}

// expNames lists what -exp accepts, "|"-separated.
func expNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, ex := range experiments {
		names = append(names, ex.name)
	}
	return strings.Join(append(names, "all"), "|")
}

var (
	expFlag   = flag.String("exp", "all", "experiment: "+expNames())
	sfFlag    = flag.Float64("sf", 0.1, "TPC-H scale factor for single-scale experiments")
	maxSfFlag = flag.Float64("maxsf", 0.3, "largest scale factor of the fig13 sweep")
	workers   = flag.Int("workers", 4, "worker threads")
)

func main() {
	flag.Parse()
	os.Exit(run(*expFlag, os.Stderr))
}

// run executes the named experiment ("all": every one, in the paper's
// order) and returns the process exit code: 2, with the valid names on
// stderr, for a name that is not in the table.
func run(name string, stderr io.Writer) int {
	known := name == "all"
	for _, ex := range experiments {
		if name != "all" && name != ex.name {
			continue
		}
		known = true
		fmt.Printf("==================== %s ====================\n", ex.name)
		ex.fn()
		fmt.Println()
	}
	if !known {
		fmt.Fprintf(stderr, "aqebench: unknown experiment %q (valid: %s)\n", name, expNames())
		return 2
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var catCache = map[float64]*storage.Catalog{}

func catalog(sf float64) *storage.Catalog {
	if c, ok := catCache[sf]; ok {
		return c
	}
	c := tpch.Gen(sf)
	catCache[sf] = c
	return c
}

// totalTime is planning + codegen + translation + compilation + execution —
// the quantity Fig. 13 plots — with the paper-calibrated compile latency.
func totalTime(q plan.Query, mode exec.Mode, w int, cost *exec.CostModel) (time.Duration, error) {
	e := exec.New(exec.Options{Workers: w, Mode: mode, Cost: cost})
	t0 := time.Now()
	_, err := e.Run(q)
	return time.Since(t0), err
}

// ---- Fig. 2: compilation vs execution time per mode, TPC-H Q1 ----

func fig2() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H Q1 at SF %.2f, single worker (paper: SF 1)\n", *sfFlag)
	fmt.Printf("%-14s %14s %14s\n", "mode", "compile[ms]", "exec[ms]")
	modes := []struct {
		name string
		mode exec.Mode
		cost *exec.CostModel
	}{
		{"LLVM IR", exec.ModeIRInterp, exec.Native()},
		{"bytecode", exec.ModeBytecode, exec.Native()},
		{"unoptimized", exec.ModeNative, exec.Paper()},
		{"optimized", exec.ModeOptimized, exec.Paper()},
	}
	for _, m := range modes {
		e := exec.New(exec.Options{Workers: 1, Mode: m.mode, Cost: m.cost})
		res, err := e.Run(tpch.Query(cat, 1))
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		st := res.Stats
		fmt.Printf("%-14s %14.2f %14.2f\n", m.name, ms(st.Translate+st.Compile), ms(st.Exec))
	}
	fmt.Println("(unoptimized/optimized compile includes the paper-calibrated LLVM latency model)")
}

// ---- Fig. 6: compile time vs instruction count ----

func fig6() {
	cat := catalog(0.01)
	fmt.Printf("%-10s %8s %10s %10s %12s %12s %12s %9s\n",
		"query", "instrs", "bc[ms]", "unopt[ms]", "opt[ms]", "unoptLLVM", "optLLVM", "fallbacks")
	model := exec.Paper()
	report := func(name string, node plan.Node) {
		cq := mustCompile(node, rt.NewMemory(), name)
		instrs, ct := cq.Module.NumInstrs(), measureCompile(cq)
		fmt.Printf("%-10s %8d %10.3f %10.3f %12.3f %12.2f %12.2f %9d\n",
			name, instrs, ms(ct.bc), ms(ct.unopt), ms(ct.opt),
			ms(model.NativeTime(instrs)), ms(model.OptTime(instrs)), ct.fallbacks)
	}
	for qn := 1; qn <= 22; qn++ {
		q := tpch.Query(cat, qn)
		// Compile the first stage's plan (later stages need prior results).
		node := q.Stages[0].Build(nil)
		report(fmt.Sprintf("Q%d", qn), node)
	}
	// Synthetic plans extend the instruction-count axis (the paper uses
	// TPC-DS for this).
	st := synth.Table(1000)
	for _, n := range []int{25, 50, 100, 200, 400} {
		report(fmt.Sprintf("synth%d", n), synth.WideAggPlan(st, n))
	}
}

// compileTimes is what measureCompile reports for one query.
type compileTimes struct {
	bc, unopt, opt time.Duration
	// fallbacks counts machine-code compilations that failed — an op
	// outside the templates, or no native backend — where the engine runs
	// bytecode instead; a failed compilation adds no time.
	fallbacks int
}

// measureCompile times the three translators on every pipeline of cq.
func measureCompile(cq *codegen.Query) compileTimes {
	var ct compileTimes
	for _, pl := range cq.Pipelines {
		t0 := time.Now()
		prog, err := vm.Translate(pl.Fn, vm.Options{})
		if err != nil {
			panic(err)
		}
		ct.bc += time.Since(t0)
		for _, tier := range []struct {
			level jit.Level
			sum   *time.Duration
		}{{jit.Unoptimized, &ct.unopt}, {jit.Optimized, &ct.opt}} {
			t0 = time.Now()
			if _, err := jit.Compile(pl.Fn, tier.level, prog); err != nil {
				ct.fallbacks++
				continue
			}
			*tier.sum += time.Since(t0)
		}
	}
	return ct
}

// ---- Fig. 13: SF sweep, geometric mean over all 22 queries ----

func fig13() {
	sfs := []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}
	modes := []exec.Mode{exec.ModeBytecode, exec.ModeNative,
		exec.ModeOptimized, exec.ModeAdaptive}
	fmt.Printf("geometric mean over all 22 TPC-H queries, %d workers, paper cost model\n", *workers)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "SF", "bytecode", "unoptimized", "optimized", "adaptive")
	for _, sf := range sfs {
		if sf > *maxSfFlag {
			break
		}
		cat := catalog(sf)
		fmt.Printf("%-8.2f", sf)
		for _, mode := range modes {
			logSum, n := 0.0, 0
			for qn := 1; qn <= 22; qn++ {
				d, err := totalTime(tpch.Query(cat, qn), mode, *workers, exec.Paper())
				if err != nil {
					fmt.Printf(" ERR(Q%d:%v)", qn, err)
					continue
				}
				logSum += math.Log(ms(d))
				n++
			}
			fmt.Printf(" %12.2f", math.Exp(logSum/float64(n)))
		}
		fmt.Println(" [ms]")
	}
}

// ---- Fig. 14: execution trace of Q11 ----

func fig14() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H Q11 at SF %.2f, %d workers (paper: SF 1)\n\n", *sfFlag, *workers)
	for _, m := range []exec.Mode{exec.ModeBytecode, exec.ModeNative, exec.ModeAdaptive} {
		e := exec.New(exec.Options{Workers: *workers, Mode: m, Cost: exec.Paper(),
			Trace: true, MorselSize: 1024})
		t0 := time.Now()
		res, err := e.Run(tpch.Query(cat, 11))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("--- %s: total %.2f ms ---\n", m, ms(time.Since(t0)))
		fmt.Print(res.Trace.Gantt(96))
		fmt.Println()
	}
}

// ---- Fig. 15: compiling very large queries ----

func fig15() {
	st := synth.Table(10000)
	fmt.Printf("%-8s %9s %12s %12s %12s %14s %14s %9s\n",
		"aggs", "instrs", "bc[ms]", "unopt[ms]", "opt[ms]", "unoptLLVM[ms]", "optLLVM[ms]", "fallbacks")
	model := exec.Paper()
	for _, n := range []int{10, 50, 100, 200, 400, 800, 1200, 1900} {
		cq := mustCompile(synth.WideAggPlan(st, n), rt.NewMemory(), fmt.Sprintf("wide%d", n))
		instrs, ct := cq.Module.NumInstrs(), measureCompile(cq)
		fmt.Printf("%-8d %9d %12.2f %12.2f %12.2f %14.1f %14.1f %9d\n",
			n, instrs, ms(ct.bc), ms(ct.unopt), ms(ct.opt),
			ms(model.NativeTime(instrs)), ms(model.OptTime(instrs)), ct.fallbacks)
	}
	fmt.Println("(optLLVM models the paper's super-linear optimized compilation; bytecode stays linear)")
}

// ---- Table I: planning and compilation times ----

func table1() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H planning/compilation times [ms] at SF %.2f\n", *sfFlag)
	fmt.Printf("%-6s %8s %8s %8s %8s %10s %10s %9s\n",
		"query", "plan", "cdg.", "bc.", "unopt.", "opt.", "instrs", "fallbacks")
	type row struct {
		plan, cdg, bc, unopt, opt float64
		instrs, fallbacks         int
	}
	var maxRow row
	for qn := 1; qn <= 22; qn++ {
		q := tpch.Query(cat, qn)
		t0 := time.Now()
		node := q.Stages[0].Build(nil)
		planT := time.Since(t0)
		mem := rt.NewMemory()
		t0 = time.Now()
		cq := mustCompile(node, mem, q.Name)
		cdgT := time.Since(t0)
		instrs, ct := cq.Module.NumInstrs(), measureCompile(cq)
		model := exec.Paper()
		r := row{ms(planT), ms(cdgT), ms(ct.bc),
			ms(ct.unopt + model.NativeTime(instrs)), ms(ct.opt + model.OptTime(instrs)),
			instrs, ct.fallbacks}
		maxRow.fallbacks += r.fallbacks
		if qn <= 5 {
			fmt.Printf("%-6s %8.3f %8.3f %8.3f %8.1f %10.1f %10d %9d\n",
				fmt.Sprintf("Q%d", qn), r.plan, r.cdg, r.bc, r.unopt, r.opt, r.instrs, r.fallbacks)
		}
		if r.plan > maxRow.plan {
			maxRow.plan = r.plan
		}
		if r.cdg > maxRow.cdg {
			maxRow.cdg = r.cdg
		}
		if r.bc > maxRow.bc {
			maxRow.bc = r.bc
		}
		if r.unopt > maxRow.unopt {
			maxRow.unopt = r.unopt
		}
		if r.opt > maxRow.opt {
			maxRow.opt = r.opt
		}
	}
	fmt.Printf("%-6s %8.3f %8.3f %8.3f %8.1f %10.1f %10s %9d\n",
		"max", maxRow.plan, maxRow.cdg, maxRow.bc, maxRow.unopt, maxRow.opt, "", maxRow.fallbacks)
	fmt.Println("(unopt./opt. include the paper-calibrated LLVM latency model; the max row's fallbacks sum all 22 queries)")
}

// ---- Table II: execution times per engine ----

func table2() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H execution times [ms] at SF %.2f (PG=Volcano stand-in)\n", *sfFlag)
	fmt.Printf("%-6s %9s | %9s %9s %9s | %9s %9s %9s\n",
		"query", "PG", "bc.1", "unopt.1", "opt.1",
		fmt.Sprintf("bc.%d", *workers), fmt.Sprintf("unopt.%d", *workers),
		fmt.Sprintf("opt.%d", *workers))
	native := exec.Native()
	geo := make(map[string][]float64)
	record := func(k string, v float64) { geo[k] = append(geo[k], v) }
	for qn := 1; qn <= 22; qn++ {
		// The baseline runs the staged plans directly.
		t0 := time.Now()
		err := runVolcano(cat, qn)
		pg := ms(time.Since(t0))
		if err != nil {
			pg = math.NaN()
		}
		cells := []float64{pg}
		record("pg", pg)
		for _, w := range []int{1, *workers} {
			for _, mode := range []exec.Mode{exec.ModeBytecode, exec.ModeNative, exec.ModeOptimized} {
				e := exec.New(exec.Options{Workers: w, Mode: mode, Cost: native})
				res, err := e.Run(tpch.Query(cat, qn))
				d := math.NaN()
				if err == nil {
					d = ms(res.Stats.Exec)
				}
				cells = append(cells, d)
				record(fmt.Sprintf("%s.%d", mode, w), d)
			}
		}
		if qn <= 5 {
			fmt.Printf("%-6s %9.1f | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n",
				fmt.Sprintf("Q%d", qn), cells[0], cells[1], cells[2], cells[3],
				cells[4], cells[5], cells[6])
		}
	}
	geoMean := func(vs []float64) float64 {
		s, n := 0.0, 0
		for _, v := range vs {
			if !math.IsNaN(v) && v > 0 {
				s += math.Log(v)
				n++
			}
		}
		return math.Exp(s / float64(n))
	}
	fmt.Printf("%-6s %9.1f | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n", "geo.m.",
		geoMean(geo["pg"]),
		geoMean(geo["bytecode.1"]), geoMean(geo["native.1"]), geoMean(geo["optimized.1"]),
		geoMean(geo[fmt.Sprintf("bytecode.%d", *workers)]),
		geoMean(geo[fmt.Sprintf("native.%d", *workers)]),
		geoMean(geo[fmt.Sprintf("optimized.%d", *workers)]))
}

// runVolcano executes a staged query on the tuple-at-a-time Volcano
// interpreter, the PG stand-in.
func runVolcano(cat *storage.Catalog, qn int) error {
	q := tpch.Query(cat, qn)
	prior := map[string]*storage.Table{}
	for i, stg := range q.Stages {
		node := stg.Build(prior)
		var rows [][]aqeDatum
		var err error
		rows, err = volcano.Run(node)
		if err != nil {
			return err
		}
		if i < len(q.Stages)-1 {
			res := &exec.Result{Rows: rows}
			for _, c := range node.Schema() {
				res.Cols = append(res.Cols, c.Name)
				res.Types = append(res.Types, c.T)
			}
			prior[stg.Name] = res.ToTable(stg.Name)
		}
	}
	return nil
}

// ---- §IV-C: register allocation strategies ----

func regalloc() {
	cat := catalog(0.01)
	fmt.Printf("register file size [bytes] per allocation strategy (paper: 36KB / 21KB / 6KB on TPC-DS Q55)\n")
	fmt.Printf("%-10s %9s %10s %10s %10s\n", "query", "instrs", "no-reuse", "window", "loop-aware")
	report := func(name string, node plan.Node) {
		mem := rt.NewMemory()
		cq := mustCompile(node, mem, name)
		sizes := map[vm.Strategy]int{}
		for _, s := range []vm.Strategy{vm.NoReuse, vm.Window, vm.LoopAware} {
			total := 0
			for _, pl := range cq.Pipelines {
				prog, err := vm.Translate(pl.Fn, vm.Options{Strategy: s, WindowSize: 8})
				if err != nil {
					panic(err)
				}
				if prog.RegFileBytes() > total {
					total = prog.RegFileBytes()
				}
			}
			sizes[s] = total
		}
		fmt.Printf("%-10s %9d %10d %10d %10d\n", name, cq.Module.NumInstrs(),
			sizes[vm.NoReuse], sizes[vm.Window], sizes[vm.LoopAware])
	}
	for _, qn := range []int{1, 5, 9, 21} {
		report(fmt.Sprintf("Q%d", qn), tpch.Query(cat, qn).Stages[0].Build(nil))
	}
	st := synth.Table(100)
	for _, n := range []int{100, 400} {
		report(fmt.Sprintf("synth%d", n), synth.WideAggPlan(st, n))
	}
}

type aqeDatum = expr.Datum
