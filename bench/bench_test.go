package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []bound                 `json:"end_to_end"`
	PerLayer  []bound                 `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// exactCounts are the per-layer metrics that must repeat exactly for a
// fixed seed: they depend on the generated inputs and nothing else.
var exactCounts = []string{
	"opt.replans", "codegen.ir_instrs", "codegen.pipelines", "vm.fused_ops", "vm.regfile_bytes",
	"asm.code_bytes", "asm.fallbacks", "vector.eligible_ratio", "server.bytes_per_row",
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires exactly the wanted names, each finite and well
// named with the unit BENCHMARK.json states.
func checkMetrics(t *testing.T, res *result, want []bound) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, b := range want {
		m, ok := res.Metrics[b.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is not emitted", b.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite: %v", b.Name, m.Value)
		case m.Unit != b.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", b.Name, m.Unit, b.Unit)
		case !nameRE.MatchString(b.Name):
			t.Errorf("metric name %q is not made of letters, digits, _ . -", b.Name)
		}
	}
}

// TestSmoke runs every workload at test scale, untraced once and traced
// twice on one set-up, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	procs := fixProcs()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			e, err := setUp(w, true, procs)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()

			plain, err := measureUntraced(e, 7, smokeSeconds, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, plain, spec.EndToEnd)
			if plain.Failed != 0 || plain.Attempted == 0 {
				t.Errorf("untraced: %d of %d requests failed", plain.Failed, plain.Attempted)
			}
			for _, b := range spec.EndToEnd {
				if plain.Metrics[b.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", b.Name, plain.Metrics[b.Name].Value)
				}
			}

			first, err := measureTraced(e, 7, smokeSeconds, 2, 2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, first, spec.PerLayer)
			if got := first.Metrics["failed_ratio"].Value; got != 0 {
				t.Errorf("failed_ratio = %v, want 0", got)
			}
			hit := first.Metrics["exec.cache_hit_ratio"].Value
			if w.cacheOff && hit != 0 {
				t.Errorf("exec.cache_hit_ratio = %v with the plan cache off", hit)
			}
			if !w.cacheOff && hit < 0.9 {
				t.Errorf("exec.cache_hit_ratio = %v on a warm workload", hit)
			}
			if wait := first.Metrics["sched.wait_p95_ms"].Value; !w.service && wait != 0 {
				t.Errorf("sched.wait_p95_ms = %v on a single-connection workload", wait)
			}

			second, err := measureTraced(e, 7, smokeSeconds, 1, 2, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s is %v then %v for one seed; it must repeat exactly", name, a, b)
				}
			}
		})
	}
}

// TestCorruptedOracleCounts flips one reference checksum and requires the
// load generator to count every response to that statement as failed.
func TestCorruptedOracleCounts(t *testing.T) {
	e, err := setUp(findWorkload("adhoc_cold"), true, fixProcs())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for b := range e.stmts[0].refs {
		e.stmts[0].refs[b].Bin.Sum ^= 1
	}
	samples, _, err := closedLoop(e, rand.New(rand.NewSource(3)), 1, 0, ownProtos, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(e.w, 3, false)
	res.tally(samples)
	if res.Failed != 1 || res.Attempted != len(e.stmts) {
		t.Fatalf("%d of %d failed; want exactly the one corrupted statement of %d", res.Failed, res.Attempted, len(e.stmts))
	}
}

// TestCompareGatesFailures holds -compare to the +0 bound on failed
// requests, and to an error (not a panic) on a directory that is not there.
func TestCompareGatesFailures(t *testing.T) {
	write := func(failed int) string {
		dir := t.TempDir()
		r := result{Workload: "adhoc_cold", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"latency_p50_ms": {Value: 3, Unit: "ms"}}}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, r.fileName()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	clean, failing := write(0), write(1)
	if err := compare("../"+boundsFile, clean, clean); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	if err := compare("../"+boundsFile, clean, failing); err == nil {
		t.Error("a set with a failed request passed against one without")
	}
	if err := compare("../"+boundsFile, clean, filepath.Join(clean, "missing")); err == nil {
		t.Error("a missing directory passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 22, 2, 4, 7, 37, 11, 16, 29})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
