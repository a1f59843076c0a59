// Package aqe benchmarks mirror the paper's evaluation: one testing.B
// bench per table/figure (cmd/aqebench prints the full paper-style rows;
// these give `go test -bench` coverage of the same code paths).
package aqe

import (
	"fmt"
	"testing"

	"aqe/internal/codegen"
	"aqe/internal/exec"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/synth"
	"aqe/internal/tpch"
	"aqe/internal/vm"
	"aqe/internal/volcano"
)

const benchSF = 0.02

var benchCat = tpch.Gen(benchSF)

func runQuery(b *testing.B, qn int, mode exec.Mode, workers int) {
	b.Helper()
	e := exec.New(exec.Options{Workers: workers, Mode: mode, Cost: exec.Native()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(tpch.Query(benchCat, qn)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 covers the latency/throughput tradeoff of Fig. 2: Q1 under
// each execution mode (compile + execute end to end).
func BenchmarkFig2(b *testing.B) {
	for _, m := range []exec.Mode{exec.ModeIRInterp, exec.ModeBytecode,
		exec.ModeNative, exec.ModeOptimized} {
		b.Run(m.String(), func(b *testing.B) { runQuery(b, 1, m, 1) })
	}
}

// BenchmarkFig6Compile measures the three translators' compile times on a
// mid-size TPC-H plan (the Fig. 6 instruction-count/compile-time relation).
func BenchmarkFig6Compile(b *testing.B) {
	node := tpch.Query(benchCat, 5).Stages[0].Build(nil)
	mem := rt.NewMemory()
	cq := mustCompile(b, node, mem)
	b.Run("bytecode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pl := range cq.Pipelines {
				if _, err := vm.Translate(pl.Fn, vm.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("unoptimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pl := range cq.Pipelines {
				if _, err := jit.Compile(pl.Fn, jit.Unoptimized, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pl := range cq.Pipelines {
				if _, err := jit.Compile(pl.Fn, jit.Optimized, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFig13 samples the SF-sweep experiment: all four modes on a
// representative query mix at the bench scale.
func BenchmarkFig13(b *testing.B) {
	for _, m := range []exec.Mode{exec.ModeBytecode, exec.ModeNative,
		exec.ModeOptimized, exec.ModeAdaptive} {
		b.Run(m.String(), func(b *testing.B) {
			e := exec.New(exec.Options{Workers: 4, Mode: m, Cost: exec.Native()})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, qn := range []int{1, 3, 6, 11} {
					if _, err := e.Run(tpch.Query(benchCat, qn)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig14 runs Q11 (the paper's trace query) adaptively with tracing
// enabled, covering the trace-recording overhead path.
func BenchmarkFig14(b *testing.B) {
	e := exec.New(exec.Options{Workers: 4, Mode: exec.ModeAdaptive,
		Cost: exec.Native(), Trace: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(tpch.Query(benchCat, 11)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 measures bytecode translation of a machine-generated wide
// query — the §V-E linear-time translation claim.
func BenchmarkFig15Translate(b *testing.B) {
	st := synth.Table(100)
	for _, n := range []int{100, 400, 1600} {
		node := synth.WideAggPlan(st, n)
		mem := rt.NewMemory()
		cq := mustCompile(b, node, mem)
		b.Run(fmt.Sprintf("aggs%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pl := range cq.Pipelines {
					if _, err := vm.Translate(pl.Fn, vm.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTable1Codegen measures planning + code generation (Table I's
// cheap columns).
func BenchmarkTable1Codegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		node := tpch.Query(benchCat, 3).Stages[0].Build(nil)
		mem := rt.NewMemory()
		mustCompile(b, node, mem)
	}
}

// BenchmarkTable2 compares the engines of Table II on Q1.
func BenchmarkTable2(b *testing.B) {
	q1 := func() plan.Node { return tpch.Query(benchCat, 1).Stages[0].Build(nil) }
	b.Run("volcano-PG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := volcano.Run(q1()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vector-Monet", func(b *testing.B) { runQuery(b, 1, exec.ModeVector, 1) })
	for _, m := range []exec.Mode{exec.ModeBytecode, exec.ModeNative, exec.ModeOptimized} {
		b.Run(m.String(), func(b *testing.B) { runQuery(b, 1, m, 1) })
	}
}

// BenchmarkFusionAblation quantifies §IV-F: bytecode with and without
// macro-op fusion on Q1.
func BenchmarkFusionAblation(b *testing.B) {
	for _, fusion := range []bool{true, false} {
		name := "fused"
		if !fusion {
			name = "nofusion"
		}
		b.Run(name, func(b *testing.B) {
			e := exec.New(exec.Options{Workers: 1, Mode: exec.ModeBytecode,
				VM: vm.Options{NoFusion: !fusion}})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(tpch.Query(benchCat, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegallocAblation covers §IV-C: translation under the three
// register-allocation strategies.
func BenchmarkRegallocAblation(b *testing.B) {
	node := tpch.Query(benchCat, 1).Stages[0].Build(nil)
	mem := rt.NewMemory()
	cq := mustCompile(b, node, mem)
	for _, s := range []struct {
		name string
		str  vm.Strategy
	}{{"loop-aware", vm.LoopAware}, {"window", vm.Window}, {"no-reuse", vm.NoReuse}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pl := range cq.Pipelines {
					if _, err := vm.Translate(pl.Fn, vm.Options{Strategy: s.str, WindowSize: 8}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func mustCompile(tb testing.TB, node plan.Node, mem *rt.Memory) *codegen.Query {
	tb.Helper()
	cq, err := codegen.Compile(node, mem, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	return cq
}
