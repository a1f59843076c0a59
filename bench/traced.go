package main

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Shares of -seconds the traced run gives its three parts. The walk and
// the forced modes always finish a whole repetition, so at large scale
// factors they overrun their share rather than report half a table.
const (
	walkShare   = 0.25
	forcedShare = 0.35
	wireShare   = 0.40
	walkReps    = 5 // repetitions when the budget allows: medians of 5, best of 5
)

func bothProtos(*stmt) []proto { return []proto{protoBinary, protoHTTP} }

// runTraced sets the workload up once and produces the per-layer table.
func runTraced(w *workload, seed int64, seconds float64, smoke bool, out string) (*result, error) {
	e, err := setUp(w, smoke, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	defer e.close()
	reps, passes := walkReps, max(w.passes(seconds*wireShare, false)/2, 2)
	if smoke {
		reps, passes, seconds = 2, 2, smokeSeconds
	}
	res, err := measureTraced(e, seed, seconds, reps, passes, out)
	if err == nil {
		res.Smoke = smoke
	}
	return res, err
}

// measureTraced walks every statement through the layers by hand, runs
// the forced engine modes, and then drives the wire path with every other
// pass traced: the ratio of the traced to the untraced median is the
// tracing overhead. End-to-end metrics are never taken from this run. The
// spans go to <out>/trace_<workload>.json unless out is empty.
func measureTraced(e *env, seed int64, seconds float64, reps, passes int, out string) (*result, error) {
	w := e.w
	res := newResult(w, seed, true)
	res.Conditions = w.conditions(e.procs, e.sf, seconds)
	rec := newRecorder()
	lr := &layerRun{e: e, rec: rec, tbl: layerTable{}}
	var err error
	budget := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second))
	}

	cache0 := e.db.Engine().CacheStats()
	if err := lr.walkAll(budget(walkShare), reps); err != nil {
		return nil, err
	}
	cache1 := e.db.Engine().CacheStats()
	if err := lr.forced(budget(forcedShare), reps); err != nil {
		return nil, err
	}
	if err := lr.optProbe(reps); err != nil {
		return nil, err
	}

	// The wire part, with the Go runtime's counters read around it.
	rng := rand.New(rand.NewSource(seed))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, gc0, t0 := cpuTime(), gcCPUSeconds(), time.Now()
	var wire, alone, hog []sample
	var hogWall time.Duration
	if w.service {
		a, err := serviceLoad(e, rng, seconds*aloneShare, false, nil)
		if err != nil {
			return nil, err
		}
		sr, err := serviceLoad(e, rng, seconds*wireShare, true, rec)
		if err != nil {
			return nil, err
		}
		alone, wire, hog, hogWall = a.alpha, sr.alpha, sr.hog, sr.wall
		res.tally(alone)
		res.tally(hog)
	} else {
		// Both protocols on every workload, so both overheads exist
		// everywhere; at least one traced and one untraced pass.
		if wire, _, err = closedLoop(e, rng, passes, cutAfter(seconds*wireShare), bothProtos, rec); err != nil {
			return nil, err
		}
	}
	res.tally(wire)
	res.TimedS = time.Since(t0).Seconds()
	cpu, gc := cpuTime()-cpu0, gcCPUSeconds()-gc0
	runtime.ReadMemStats(&m1)
	requests := float64(max(len(wire)+len(alone)+len(hog), 1))

	n := len(e.stmts)
	med := func(layer string) float64 { return lr.tbl.cost(layer, n, median) }
	best := func(layer string) float64 { return lr.tbl.cost(layer, n, slices.Min[[]float64]) }
	perRun := func(v float64) float64 { return v / float64(max(lr.runs, 1)) }

	res.set("sql.parse_us", med("sql.parse")*1e3, "us")
	res.set("sql.plan_us", med("sql.plan")*1e3, "us")
	res.set("opt.order_us", lr.tbl.cost("opt.order", n+4, median)*1e3, "us")
	res.set("opt.est_card_err", lr.estCardErr, "ratio")
	res.set("opt.replans", float64(lr.optReplans), "count")
	res.set("codegen.compile_us", med("codegen.compile")*1e3, "us")
	res.set("codegen.ir_instrs", float64(lr.irInstrs), "count")
	res.set("codegen.pipelines", float64(lr.pipelines), "count")
	res.set("vm.translate_us", med("vm.translate")*1e3, "us")
	res.set("vm.fused_ops", float64(lr.fusedOps), "count")
	res.set("vm.regfile_bytes", float64(lr.regfileBytes), "B")
	res.set("vm.exec_ms", best("vm.exec"), "ms")
	res.set("jit.unopt_compile_us", med("jit.unopt_compile")*1e3, "us")
	res.set("jit.opt_compile_us", med("jit.opt_compile")*1e3, "us")
	res.set("jit.exec_ms", best("jit.exec"), "ms")
	res.set("asm.assemble_us", med("asm.assemble")*1e3, "us")
	res.set("asm.code_bytes", float64(lr.codeBytes), "B")
	res.set("asm.exec_ms", best("asm.exec"), "ms")
	res.set("asm.fallbacks", float64(lr.asmFallbacks), "count")
	res.set("vector.compile_us", med("vector.compile")*1e3, "us")
	res.set("vector.eligible_ratio", float64(lr.vecEligible)/float64(max(lr.pipelines, 1)), "ratio")
	res.set("vector.exec_ms", best("vector.exec"), "ms")

	parts := med("exec.codegen") + med("exec.translate") + med("exec.compile") + med("exec.exec") + med("exec.wait")
	res.set("exec.codegen_ms", med("exec.codegen"), "ms")
	res.set("exec.translate_ms", med("exec.translate"), "ms")
	res.set("exec.compile_ms", med("exec.compile"), "ms")
	res.set("exec.exec_ms", med("exec.exec"), "ms")
	res.set("exec.finalize_ms", med("exec.finalize"), "ms")
	res.set("exec.prune_ms", med("exec.prune"), "ms")
	res.set("exec.total_ms", med("exec.total"), "ms")
	res.set("exec.overhead_ms", med("exec.total")-parts, "ms")
	res.set("exec.compilations", perRun(float64(lr.compilations)), "count")
	res.set("exec.native_morsels", perRun(float64(lr.nativeMorsels)), "count")
	res.set("exec.vector_morsels", perRun(float64(lr.vectorMorsels)), "count")
	res.set("exec.engine_switches", perRun(float64(lr.engineSwitches)), "count")
	res.set("exec.pruned_ratio", float64(lr.tuplesPruned)/float64(max(lr.prunableTuples, 1)), "ratio")
	res.set("exec.auto_vs_best", lr.autoVsBest(), "ratio")
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	res.set("exec.cache_hit_ratio", float64(cache1.Hits-cache0.Hits)/float64(max(lookups, 1)), "ratio")
	end := e.db.Engine().CacheStats()
	res.set("exec.cache_bytes", float64(end.Bytes), "B")
	res.set("exec.cache_evictions", float64(end.Evictions), "count")

	waits := column(wire, func(s sample) float64 { return float64(s.stats.WaitNS) / 1e6 })
	queued := column(wire, func(s sample) float64 {
		if s.stats.Queued {
			return 1
		}
		return 0
	})
	res.set("sched.wait_p50_ms", median(waits), "ms")
	res.set("sched.wait_p95_ms", percentile(waits, 0.95), "ms")
	res.set("sched.queued_ratio", mean(queued), "ratio")
	res.set("sched.hog_qps", 0, "1/s")
	res.set("sched.degrade_p95", 0, "ratio")
	if w.service {
		res.set("sched.hog_qps", float64(len(column(hog, latOf)))/hogWall.Seconds(), "1/s")
		res.set("sched.degrade_p95", percentile(column(wire, latOf), 0.95)/
			math1(percentile(column(alone, latOf), 0.95)), "ratio")
	}

	session := lr.tbl.perStmt("session.exec", n, median)
	res.set("session.exec_ms", mean(session), "ms")
	overhead := func(p proto) float64 {
		var over []float64
		for si := range e.stmts {
			lat := column(filter(wire, func(s sample) bool { return s.req.stmt == si && s.req.proto == p }), latOf)
			if len(lat) > 0 {
				over = append(over, median(lat)-session[si])
			}
		}
		return mean(over)
	}
	res.set("server.binary_overhead_ms", overhead(protoBinary), "ms")
	res.set("server.http_overhead_ms", overhead(protoHTTP), "ms")
	own := filter(wire, func(s sample) bool { return slices.Contains(e.stmts[s.req.stmt].protos, s.req.proto) })
	var rows, wireMS float64
	for _, s := range own {
		if s.ok {
			rows += float64(s.rows)
			wireMS += s.latMS
		}
	}
	res.set("server.rows_per_s", rows/math1(wireMS/1e3), "1/s")
	res.set("server.bytes_per_row", bytesPerRow(wire), "B")
	res.set("server.ttfr_share", median(column(own, ttfrOf))/math1(median(column(own, latOf))), "ratio")

	res.set("runtime.alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/requests, "KiB")
	res.set("runtime.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/requests, "count")
	res.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/requests, "ms")
	res.set("runtime.gc_cpu_share", gc/math1(cpu.Seconds()), "ratio")
	res.set("tpch.gen_s", e.genS, "s")
	res.set("volcano.check_s", e.checkS, "s")

	tracedLat := column(filter(own, func(s sample) bool { return s.traced }), latOf)
	plainLat := column(filter(own, func(s sample) bool { return !s.traced }), latOf)
	res.set("bench.trace_overhead_ratio", median(tracedLat)/math1(median(plainLat)), "ratio")
	res.set("bench.loadgen_late_p95_ms", percentile(column(wire, func(s sample) float64 { return s.lateMS }), 0.95), "ms")
	res.set("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	res.Samples = len(column(wire, latOf))
	res.Statements = statementMedians(e.stmts, own)

	if out != "" {
		if err := rec.write(filepath.Join(out, "trace_"+w.name+".json"), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// math1 guards a denominator: a zero becomes one, so that a ratio over
// nothing reads as its numerator rather than as infinity.
func math1(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func filter(samples []sample, keep func(sample) bool) []sample {
	var out []sample
	for _, s := range samples {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// bytesPerRow is the binary protocol's row payload per row over the
// first pass only: the passes after it depend on how fast the run went,
// the first on the seed alone, so the value repeats exactly.
func bytesPerRow(wire []sample) float64 {
	var bytes, rows float64
	seen := map[int]bool{}
	for _, s := range wire {
		if s.req.proto != protoBinary || !s.ok {
			continue
		}
		if seen[s.req.stmt] {
			break
		}
		seen[s.req.stmt] = true
		bytes += float64(s.bytes)
		rows += float64(s.rows)
	}
	return bytes / math1(rows)
}
