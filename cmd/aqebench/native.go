package main

import (
	"fmt"
	"math"
	"time"

	"aqe/internal/asm"
	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/ir"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/vm"
)

// ---- native: the tier-6 template JIT vs the closure tiers and fused VM ----

// hashWalkPlan builds the native tier's target regime: a join whose build
// side carries duplicate keys (chains of ~8 tuples), so the probe pipeline
// is dominated by the hash-probe chain walk with its Bloom pre-check —
// tight pointer-chasing loops where per-op dispatch overhead is largest.
func hashWalkPlan(sf float64) (plan.Node, int64) {
	nBuild := int(sf * 2_000_000)
	if nBuild < 100_000 {
		nBuild = 100_000
	}
	nProbe := 2 * nBuild
	bk := storage.NewColumn("k", storage.Int64)
	bv := storage.NewColumn("v", storage.Int64)
	for i := 0; i < nBuild; i++ {
		bk.AppendInt64(int64(i % (nBuild / 8))) // ~8-tuple chains
		bv.AppendInt64(int64(i))
	}
	bt := storage.NewTable("hwbuild", bk, bv)
	pk := storage.NewColumn("p", storage.Int64)
	for i := 0; i < nProbe; i++ {
		// Half the probes miss: the Bloom pre-check prunes their chain walk.
		pk.AppendInt64(int64(uint64(i) * 0x9E3779B97F4A7C15 % uint64(nBuild/4)))
	}
	pt := storage.NewTable("hwprobe", pk)
	b := plan.NewScan(bt, "k", "v")
	p := plan.NewScan(pt, "p")
	j := plan.NewJoin(plan.Inner, b, p,
		[]expr.Expr{plan.C(b.Schema(), "k")},
		[]expr.Expr{plan.C(p.Schema(), "p")},
		[]string{"v"})
	jsch := j.Schema()
	node := plan.NewGroupBy(j, nil, nil,
		[]plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(jsch, "v"), Name: "sv"},
			{Func: plan.CountStar, Name: "n"},
		})
	return node, int64(nBuild + nProbe)
}

// arithPlan builds the compute-dense regime: one scan whose per-tuple
// work is a deep arithmetic expression tree feeding scalar aggregates —
// long dependency chains of single-use intermediates, which is exactly
// the slot traffic the register allocator removes. Q1 has the same shape
// but its wide decimal columns keep it partly load-bound.
func arithPlan(sf float64) (plan.Node, int64) {
	n := int(sf * 6_000_000)
	if n < 500_000 {
		n = 500_000
	}
	ca := storage.NewColumn("a", storage.Int64)
	cb := storage.NewColumn("b", storage.Int64)
	for i := 0; i < n; i++ {
		ca.AppendInt64(int64(i%9973 + 1))
		cb.AppendInt64(int64(i%127 + 1))
	}
	tb := storage.NewTable("arith", ca, cb)
	s := plan.NewScan(tb, "a", "b")
	sch := s.Schema()
	a, b := plan.C(sch, "a"), plan.C(sch, "b")
	// A ~30-op polynomial-style chain per tuple, all intermediates single
	// use. Divisors are strictly positive so no trap exits fire.
	poly := func(x, y expr.Expr) expr.Expr {
		t1 := expr.Add(expr.Mul(x, expr.Int(3)), y)
		t2 := expr.Mul(expr.Add(t1, expr.Int(7)), expr.Sub(x, expr.Int(5)))
		t3 := expr.Add(expr.Mul(t2, x), expr.Mul(t1, expr.Int(13)))
		t4 := expr.Sub(expr.Mul(t3, expr.Int(11)), expr.Div(t2, y))
		return expr.Add(expr.Mul(t4, expr.Int(17)), expr.Div(t3, expr.Add(y, expr.Int(1))))
	}
	e1 := poly(a, b)
	e2 := poly(b, a)
	e3 := expr.Sub(expr.Mul(e1, expr.Int(5)), expr.Div(e2, expr.Int(3)))
	// Scale each aggregate input down so the Sum over millions of tuples
	// stays inside int64 (the per-tuple chains reach ~1e15).
	shrink := func(e expr.Expr) expr.Expr { return expr.Div(e, expr.Int(1<<20)) }
	node := plan.NewGroupBy(s, nil, nil,
		[]plan.AggExpr{
			{Func: plan.Sum, Arg: shrink(e1), Name: "s1"},
			{Func: plan.Sum, Arg: shrink(e2), Name: "s2"},
			{Func: plan.Sum, Arg: shrink(e3), Name: "s3"},
		})
	return node, int64(n)
}

// arithfPlan is the floating-point analogue of arithPlan: the same deep
// single-use chains, but over f64 columns so the slot traffic being
// eliminated is XMM load/store rather than GPR — the register file the
// slot backend hits hardest (every movsd round-trips the store buffer).
func arithfPlan(sf float64) (plan.Node, int64) {
	n := int(sf * 6_000_000)
	if n < 500_000 {
		n = 500_000
	}
	cx := storage.NewColumn("x", storage.Float64)
	cy := storage.NewColumn("y", storage.Float64)
	for i := 0; i < n; i++ {
		cx.AppendFloat64(float64(i%9973)/64 + 1)
		cy.AppendFloat64(float64(i%127)/8 + 1)
	}
	tb := storage.NewTable("arithf", cx, cy)
	s := plan.NewScan(tb, "x", "y")
	sch := s.Schema()
	x, y := plan.C(sch, "x"), plan.C(sch, "y")
	poly := func(x, y expr.Expr) expr.Expr {
		t1 := expr.Add(expr.Mul(x, expr.Float(1.5)), y)
		t2 := expr.Mul(expr.Add(t1, expr.Float(0.25)), expr.Sub(x, expr.Float(0.5)))
		t3 := expr.Add(expr.Mul(t2, x), expr.Mul(t1, expr.Float(3.25)))
		t4 := expr.Sub(expr.Mul(t3, expr.Float(1.125)), expr.Div(t2, y))
		return expr.Add(expr.Mul(t4, expr.Float(0.75)), expr.Div(t3, expr.Add(y, expr.Float(1))))
	}
	e1 := poly(x, y)
	e2 := poly(y, x)
	e3 := expr.Sub(expr.Mul(e1, expr.Float(0.5)), expr.Div(e2, expr.Float(3)))
	node := plan.NewGroupBy(s, nil, nil,
		[]plan.AggExpr{
			{Func: plan.Sum, Arg: e1, Name: "s1"},
			{Func: plan.Sum, Arg: e2, Name: "s2"},
			{Func: plan.Sum, Arg: e3, Name: "s3"},
		})
	return node, int64(n)
}

// nativeExp measures the copy-and-patch tier against every other tier on
// the TPC-H trio (Q3/Q5/Q10: join-heavy pipelines) and the hash-walk
// synthetic, as per-tier execution time / source-morsel rate, then the
// real (unsimulated) compile latency of each backend per workload. The
// target regime is the hash-walk pipeline: native machine code must beat
// the fused bytecode VM there.
func nativeExp() {
	cat := catalog(*sfFlag)
	const reps = 3
	if !asm.Supported() {
		fmt.Println("no native backend on this platform: ModeNative degrades to the optimized closure tier (fallback counters below)")
	}

	type workload struct {
		name string
		run  func(e *exec.Engine) (*exec.Result, error)
		rows int64 // source tuples, for the morsel rate
	}
	var wls []workload
	// Q1 is the compute-dense regime (decimal arithmetic over one wide
	// scan) where the register allocator has the most slot traffic to
	// remove; Q3/Q5/Q10 are the join-heavy pipelines.
	for _, qn := range []int{1, 3, 5, 10} {
		qn := qn
		q := tpch.Query(cat, qn)
		var rows int64
		tables := []string{"lineitem", "orders", "customer", "supplier", "nation"}
		if qn == 1 {
			tables = []string{"lineitem"}
		}
		for _, tn := range tables {
			if t := cat.Table(tn); t != nil {
				rows += int64(t.Rows())
			}
		}
		wls = append(wls, workload{name: fmt.Sprintf("Q%d", qn),
			run:  func(e *exec.Engine) (*exec.Result, error) { return e.Run(q) },
			rows: rows})
	}
	hwNode, hwRows := hashWalkPlan(*sfFlag)
	wls = append(wls, workload{name: "hashwalk",
		run:  func(e *exec.Engine) (*exec.Result, error) { return e.RunPlan(hwNode, "hashwalk") },
		rows: hwRows})
	arNode, arRows := arithPlan(*sfFlag)
	wls = append(wls, workload{name: "arith",
		run:  func(e *exec.Engine) (*exec.Result, error) { return e.RunPlan(arNode, "arith") },
		rows: arRows})
	afNode, afRows := arithfPlan(*sfFlag)
	wls = append(wls, workload{name: "arithf",
		run:  func(e *exec.Engine) (*exec.Result, error) { return e.RunPlan(afNode, "arithf") },
		rows: afRows})

	modes := []exec.Mode{exec.ModeBytecode, exec.ModeUnoptimized,
		exec.ModeOptimized, exec.ModeNative}
	fmt.Printf("per-tier execution at SF %.2f, %d workers (static modes, real costs, no cache, best of %d)\n",
		*sfFlag, *workers, reps)
	fmt.Printf("%-10s %10s %10s %10s %10s %9s %9s %7s\n",
		"workload", "bc[ms]", "unopt[ms]", "opt[ms]", "native[ms]",
		"nat/bc", "Mtup/s", "n.mors")
	var hwNative, hwBytecode float64
	for _, wl := range wls {
		var cells []float64
		var nat *exec.Result
		for _, mode := range modes {
			best := (*exec.Result)(nil)
			for r := 0; r < reps; r++ {
				e := exec.New(exec.Options{Workers: *workers, Mode: mode, Cost: exec.Native()})
				res, err := wl.run(e)
				if err != nil {
					panic(fmt.Sprintf("%s %v: %v", wl.name, mode, err))
				}
				if best == nil || res.Stats.Exec < best.Stats.Exec {
					best = res
				}
			}
			cells = append(cells, ms(best.Stats.Exec))
			if mode == exec.ModeNative {
				nat = best
			}
		}
		rate := float64(wl.rows) / (cells[3] / 1e3) / 1e6
		fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.2f %8.2fx %9.1f %7d\n",
			wl.name, cells[0], cells[1], cells[2], cells[3],
			cells[0]/cells[3], rate, nat.Stats.NativeMorsels)
		if nat.Stats.NativeFallbacks > 0 {
			fmt.Printf("%-10s (%d pipelines fell back to the optimized closure tier)\n",
				"", nat.Stats.NativeFallbacks)
		}
		if wl.name == "hashwalk" {
			hwNative, hwBytecode = cells[3], cells[0]
		}
	}

	// Real per-backend compile latency, whole module, no latency model:
	// the copy-and-patch claim is bytecode ≪ native ≪ unoptimized closure
	// ≪ optimized closure.
	fmt.Printf("\nreal compile latency per workload [ms] (whole module, no cost model)\n")
	fmt.Printf("%-10s %8s %10s %10s %10s %10s\n",
		"workload", "instrs", "bc", "native", "unopt", "opt")
	latency := func(name string, node plan.Node) {
		mem := rt.NewMemory()
		cq := mustCompile(node, mem, name)
		var bc, nat, unopt, opt time.Duration
		natOK := asm.Supported()
		// Best of 5 per backend: single-shot numbers at these scales
		// (tens of microseconds) are dominated by scheduler noise.
		const reps = 5
		bestOf := func(f func() error) (time.Duration, bool) {
			best := time.Duration(math.MaxInt64)
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				if err := f(); err != nil {
					return 0, false
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			return best, true
		}
		for _, pl := range cq.Pipelines {
			var prog *vm.Program
			d, ok := bestOf(func() (err error) {
				prog, err = vm.Translate(pl.Fn, vm.Options{})
				return err
			})
			if !ok {
				panic("bytecode translation failed")
			}
			bc += d
			if natOK {
				// Compile splits edges in place; clone outside the timer.
				clones := make([]*ir.Function, reps)
				for i := range clones {
					clones[i] = pl.Fn.Clone()
				}
				r := 0
				d, ok := bestOf(func() error {
					fn := clones[r]
					r++
					_, err := jit.Compile(fn, jit.Native, prog)
					return err
				})
				if ok {
					nat += d
				} else {
					natOK = false
				}
			}
			d, _ = bestOf(func() error {
				_, err := jit.Compile(pl.Fn, jit.Unoptimized, prog)
				return err
			})
			unopt += d
			d, _ = bestOf(func() error {
				_, err := jit.Compile(pl.Fn, jit.Optimized, prog)
				return err
			})
			opt += d
		}
		natMs := math.NaN()
		if natOK {
			natMs = ms(nat)
		}
		fmt.Printf("%-10s %8d %10.3f %10.3f %10.3f %10.3f\n",
			name, cq.Module.NumInstrs(), ms(bc), natMs, ms(unopt), ms(opt))
	}
	for _, qn := range []int{1, 3, 5, 10} {
		latency(fmt.Sprintf("Q%d", qn), tpch.Query(cat, qn).Stages[0].Build(nil))
	}
	latency("hashwalk", hwNode)
	latency("arith", arNode)
	latency("arithf", afNode)

	if asm.Supported() {
		verdict := "MET"
		if hwNative > hwBytecode {
			verdict = "MISSED"
		}
		fmt.Printf("\ntarget (native >= fused VM morsel rate on the hash-walk pipeline): %s (native %.2f ms vs bytecode %.2f ms)\n",
			verdict, hwNative, hwBytecode)
	}
}
