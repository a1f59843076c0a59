//go:build amd64 && (linux || darwin)

package asm_test

import (
	"context"
	"fmt"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/codegen"
	"aqe/internal/exec"
	"aqe/internal/ir"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/tpch"
)

// tpchPipelines code-generates every stage of TPC-H query qn over cat
// and returns the worker functions. A later stage is planned over the
// materialized results of the stages before it, which e runs.
func tpchPipelines(t *testing.T, e *exec.Engine, cat *storage.Catalog, qn int) []*codegen.Pipeline {
	t.Helper()
	q := tpch.Query(cat, qn)
	prior := make(map[string]*storage.Table)
	var out []*codegen.Pipeline
	for i, st := range q.Stages {
		node := st.Build(prior)
		cq, err := codegen.Compile(node, rt.NewMemory(), fmt.Sprintf("q%d/%s", qn, st.Name))
		if err != nil {
			t.Fatalf("Q%d %s: %v", qn, st.Name, err)
		}
		out = append(out, cq.Pipelines...)
		if i < len(q.Stages)-1 {
			res, err := e.RunPlanOpts(context.Background(), node, st.Name, exec.RunOpts{})
			if err != nil {
				t.Fatalf("Q%d %s: %v", qn, st.Name, err)
			}
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	return out
}

// TestQ1ScanPaths pins the fast paths on the paper's running example: a
// silent fall-back to the full segment translation, or a checked op that
// materializes its flag again, fails here rather than only in a timer.
// In Q1's lineitem scan the seven column loads are folded GEPs off
// constant column bases, and the aggregation's group-entry accesses (the
// φ of the found and the inserted entry) run along one chain of checked
// ops, so they share one translation.
func TestQ1ScanPaths(t *testing.T) {
	cat := tpch.Gen(0.01)
	var scan *ir.Function
	for _, p := range tpchPipelines(t, nil, cat, 1) {
		if p.Table != nil && p.Table.Name == "lineitem" {
			scan = p.Fn.Clone()
		}
	}
	if scan == nil {
		t.Fatal("Q1 has no lineitem scan")
	}
	_, cs, err := asm.CompileCensus(scan)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("paths %v, SETO %d", cs.Paths, cs.SETO)

	var columns, checked int
	byBase := map[*ir.Value][]*ir.Value{}
	for _, b := range scan.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpSAddOvf, ir.OpSSubOvf, ir.OpSMulOvf:
				checked++
			case ir.OpLoad, ir.OpStore:
				a := in.Args[0]
				if a.Op != ir.OpGEP {
					continue
				}
				if a.Args[0].IsConst() && !a.Args[1].IsConst() {
					columns++
					if p := cs.Path[in.ID]; p != "constseg" {
						t.Errorf("column load %%%d takes the %s path, want constseg", in.ID, p)
					}
				} else if !a.Args[0].IsConst() && a.Args[1].IsConst() {
					byBase[a.Args[0]] = append(byBase[a.Args[0]], in)
				}
			}
		}
	}
	if columns != 7 {
		t.Errorf("%d column loads, want Q1's 7", columns)
	}
	if checked == 0 || cs.SETO != 0 {
		t.Errorf("%d of %d checked ops emit SETO, want none", cs.SETO, checked)
	}
	var entry *ir.Value
	for base, accs := range byBase {
		if base.Op == ir.OpPhi && (entry == nil || len(accs) > len(byBase[entry])) {
			entry = base
		}
	}
	if entry == nil || len(byBase[entry]) < 8 {
		t.Fatalf("no group-entry φ with the aggregates' accesses off it")
	}
	paths := map[string]int{}
	for _, in := range byBase[entry] {
		paths[cs.Path[in.ID]]++
	}
	if paths["translate"] != 1 || paths["cached"] != len(byBase[entry])-1 {
		t.Errorf("group entry %%%d: %d accesses take paths %v, want 1 translate and the rest cached",
			entry.ID, len(byBase[entry]), paths)
	}
}

// TestCensusTPCH logs, per TPC-H query, how the loads and stores of its
// pipelines address memory (the shape of the IR) and the path each took
// (what the emitter made of it): EXPERIMENTS.md's census. Every access
// is counted once on each side.
func TestCensusTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("plans and compiles all 22 queries")
	}
	cat := tpch.Gen(0.01)
	e := exec.New(exec.Options{Mode: exec.ModeBytecode, Workers: 1})
	var total [4]int
	var paths [len(asm.PathNames)]int
	seto := 0
	var sizes [4]int // groups of 2, 3, 4–7 and 8+ accesses
	for qn := 1; qn <= 22; qn++ {
		var shape [4]int // constant base, non-constant base at a constant offset, of those reusing a base in the block, other
		var qp [len(asm.PathNames)]int
		for _, p := range tpchPipelines(t, e, cat, qn) {
			f := p.Fn.Clone()
			for _, b := range f.Blocks {
				seen := map[*ir.Value]bool{}
				for _, in := range b.Instrs {
					if in.Op != ir.OpLoad && in.Op != ir.OpStore {
						continue
					}
					base, constOff := in.Args[0], true
					if base.Op == ir.OpGEP {
						base, constOff = base.Args[0], base.Args[1].IsConst() || base.Lit == 0
					}
					switch {
					case base.IsConst():
						shape[0]++
					case constOff:
						shape[1]++
						if seen[base] {
							shape[2]++
						}
						seen[base] = true
					default:
						shape[3]++
					}
				}
			}
			_, cs, err := asm.CompileCensus(f)
			if err != nil {
				t.Fatalf("Q%d %s: %v", qn, p.Label, err)
			}
			for i, n := range cs.Paths {
				qp[i] += n
			}
			seto += cs.SETO
			for _, n := range cs.Groups {
				switch {
				case n >= 8:
					sizes[3]++
				case n >= 4:
					sizes[2]++
				default:
					sizes[n-2]++
				}
			}
		}
		n, m := 0, 0
		for i := range qp {
			paths[i] += qp[i]
			n += qp[i]
		}
		for i, s := range shape {
			total[i] += s
			if i != 2 {
				m += s
			}
		}
		if n != m {
			t.Errorf("Q%d: %d accesses by path, %d by shape", qn, n, m)
		}
		t.Logf("Q%-2d const %4d  const-offset %4d (reuse %4d)  other %4d | paths %v", qn,
			shape[0], shape[1], shape[2], shape[3], qp)
	}
	t.Logf("all: const %d, const-offset %d (reuse %d), other %d", total[0], total[1], total[2], total[3])
	for i, name := range asm.PathNames {
		t.Logf("  %-9s %5d", name, paths[i])
	}
	t.Logf("  shared translations by group size: 2: %d, 3: %d, 4–7: %d, 8+: %d", sizes[0], sizes[1], sizes[2], sizes[3])
	t.Logf("  checked ops with SETO: %d", seto)
}
