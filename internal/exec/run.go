package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aqe/internal/asm"
	"aqe/internal/codegen"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// queryRun is the runtime state of one executing plan.
type queryRun struct {
	eng   *Engine
	cq    *codegen.Query
	mem   *rt.Memory
	qs    *rt.QueryState
	stats *Stats
	fp    Fingerprint

	// tenant is the identity the query was admitted under; the shared
	// pool grants its morsel workers by the tenant's fair-share weight.
	tenant string

	handles    []*Handle
	queryStart *vm.Program
	ctxs       []*rt.Ctx // per worker slot
	coord      *rt.Ctx

	trace *Trace

	// reopt is the replan budget shared across restart attempts, nil
	// when the query runs without a Replanner (replan.go).
	reopt *reoptState

	// result is the segment-backed result set collect fills from the
	// final pipeline's published output records; taken is how many of
	// each worker's records it already holds, and limit the plan's LIMIT
	// when it applies to arrival order (no ORDER BY), else -1. All of it
	// belongs to the coordinator goroutine.
	result *RowSet
	taken  []int
	limit  int
	// emit is the consumer of a streamed result (set only when the plan
	// has no ORDER BY): collect hands it every new run of records, while
	// the final pipeline is still running. release returns the admission
	// ticket the moment that pipeline ends, even if the coordinator is
	// then blocked inside emit.
	emit    func(Rows) error
	emitErr error
	emitDur time.Duration
	release func()

	// cancelled is the preemption flag every morsel claim and finalize
	// partition checks: one cheap atomic load, so a cancel or deadline
	// lands within one morsel of work per executor.
	cancelled atomic.Bool

	failMu    sync.Mutex
	failed    error
	cancelErr error

	// Tier-6 counters, folded into Stats when the run finishes. They are
	// atomics on the run (not fields of Stats) because a background compile
	// can outlive the query: a late fallback may tick after the engine
	// snapshots Stats, and must not race with that copy.
	nativeCompiles  atomic.Int64
	nativeMorsels   atomic.Int64
	nativeFallbacks atomic.Int64

	// Engine-selection counters (same snapshot argument as above):
	// morsels dispatched to the vectorized engine and controller engine
	// switches (vectorized installs plus demotions back).
	vectorMorsels  atomic.Int64
	engineSwitches atomic.Int64
}

// cancel requests cooperative termination: workers stop claiming morsels,
// finalize stops claiming partitions, and in-flight background compiles
// abandon their slot. Idempotent; the first cause wins.
func (qr *queryRun) cancel(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	qr.failMu.Lock()
	if qr.cancelErr == nil {
		qr.cancelErr = cause
	}
	qr.failMu.Unlock()
	if qr.cancelled.CompareAndSwap(false, true) && qr.trace != nil {
		now := qr.trace.Since(time.Now())
		qr.trace.Add(Event{Kind: EvCancel, Pipeline: -1, Worker: -1,
			Label: "query", Start: now, End: now})
	}
}

// cancelCause returns the recorded cancellation cause.
func (qr *queryRun) cancelCause() error {
	qr.failMu.Lock()
	defer qr.failMu.Unlock()
	if qr.cancelErr != nil {
		return qr.cancelErr
	}
	return context.Canceled
}

// newQueryRun binds externs, translates all worker functions to bytecode
// (or adopts the cached translation on a fingerprint hit), performs
// up-front compilation for the static modes, and builds the runtime state
// the code generator's descriptors require. The trace (nil unless tracing)
// is created by the caller so its origin covers the admission wait.
func (e *Engine) newQueryRun(ctx context.Context, cq *codegen.Query, mem *rt.Memory, st *Stats, tr *Trace) (*queryRun, error) {
	qr := &queryRun{eng: e, cq: cq, mem: mem, stats: st, trace: tr,
		result: newRowSet(mem, cq), taken: make([]int, e.opts.Workers), limit: -1}
	qr.fp = fingerprintOf(cq, e.opts.VM, e.opts.NoNative, e.opts.NoRegAlloc, e.opts.NoVector)
	st.Fingerprint = qr.fp.Short()

	var ent *cachedPlan
	if e.cache != nil {
		if ent = e.cache.lookup(qr.fp); ent != nil && len(ent.pipes) != len(cq.Pipelines) {
			ent = nil // fingerprint collision paranoia: treat as a miss
		}
	}
	if ent != nil {
		// Adopting the cached translation is a few map lookups, not
		// translation work: Stats.Translate stays zero so warm executions
		// (every prepared-statement EXECUTE after the first) report none.
		st.CacheHit = true
		qr.queryStart = ent.queryStart
		for i, pl := range cq.Pipelines {
			qr.handles = append(qr.handles, HandleFor(pl.Fn, ent.pipes[i].prog))
		}
	} else {
		tTr := time.Now()
		var progs []*vm.Program
		for _, pl := range cq.Pipelines {
			h, err := NewHandle(pl.Fn, e.opts.VM)
			if err != nil {
				return nil, err
			}
			qr.handles = append(qr.handles, h)
			progs = append(progs, h.Prog)
		}
		qsProg, err := vm.Translate(cq.QueryStart, e.opts.VM)
		if err != nil {
			return nil, err
		}
		qr.queryStart = qsProg
		if e.cache != nil {
			e.cache.insert(qr.fp, qsProg, progs)
		}
		st.Translate += time.Since(tTr)
	}
	for _, h := range qr.handles {
		h.UseIRInterp = e.opts.Mode == ModeIRInterp
		if h.Prog.RegFileBytes() > st.RegFileBytes {
			st.RegFileBytes = h.Prog.RegFileBytes()
		}
		st.FusedOps += h.Prog.Fused
	}

	// Pre-stage the vectorized kernel of every pipeline (adopting the
	// cached one on a fingerprint hit). Kernel construction is cheap — no
	// code generation, just shape validation and lookup tables — so it runs
	// up-front; installing a kernel is a per-pipeline decision of the mode
	// or the adaptive controller. Shapes the engine cannot execute with
	// bit-identical semantics latch the handle's vector-failed flag.
	if !e.opts.NoVector && e.opts.Mode != ModeIRInterp {
		for i, pl := range cq.Pipelines {
			var k *vector.Kernel
			if ent != nil {
				k = ent.pipes[i].vec
			}
			if k == nil {
				kk, kerr := vector.Compile(pl.Vec)
				if kerr == nil {
					k = kk
					if e.cache != nil {
						e.cache.addVector(qr.fp, i, kk)
					}
				}
			}
			if k != nil {
				qr.handles[i].SetVecKernel(k)
			} else {
				qr.handles[i].MarkVecFailed()
			}
		}
	}

	// Static compiled modes compile the whole module up-front,
	// single-threaded, before execution starts (§II-A) — this is the
	// latency the adaptive mode exists to avoid. A cache hit skips both
	// the compilation and its simulated latency: the artifact exists, so
	// there is nothing to wait for.
	if e.opts.Mode == ModeUnoptimized || e.opts.Mode == ModeOptimized || e.opts.Mode == ModeNative {
		tC := time.Now()
		level := jit.Unoptimized
		hl := LevelUnoptimized
		switch e.opts.Mode {
		case ModeOptimized:
			level, hl = jit.Optimized, LevelOptimized
		case ModeNative:
			level, hl = jit.Native, LevelNative
		}
		compiledAny := false
		for i, h := range qr.handles {
			lv, l := level, hl
			if lv == jit.Native && (!asm.Supported() || e.opts.NoNative) {
				// No backend on this platform (or tier disabled): the static
				// native mode degrades per-pipeline to the optimized closure
				// tier, silently — the query must still complete (§IV-E).
				h.MarkNativeFailed()
				qr.nativeFallbacks.Add(1)
				lv, l = jit.Optimized, LevelOptimized
			}
			c, fresh, cerr := qr.compiledFor(ent, i, h, lv)
			if cerr != nil {
				if lv != jit.Native {
					return nil, cerr
				}
				// Unsupported op or exec-memory failure for this one
				// function: degrade it to the optimized closure tier.
				h.MarkNativeFailed()
				qr.nativeFallbacks.Add(1)
				lv, l = jit.Optimized, LevelOptimized
				if c, fresh, cerr = qr.compiledFor(ent, i, h, lv); cerr != nil {
					return nil, cerr
				}
			}
			if fresh {
				compiledAny = true
				if lv == jit.Native {
					qr.nativeCompiles.Add(1)
				}
			}
			h.Install(c, l)
		}
		if e.opts.Cost.Simulate && compiledAny {
			d := qr.modelCompileTime(hl, st.Instrs, maxFnInstrs(cq))
			if !sleepCtx(ctx, d) {
				return nil, context.Cause(ctx)
			}
		}
		// Adopting cached closures costs nothing; only fresh compilation
		// counts, so warm runs report zero compile time.
		if compiledAny {
			st.Compile += time.Since(tC)
		}
		if qr.trace != nil {
			kind := EvCompile
			if e.opts.Mode == ModeNative {
				kind = EvNative
			}
			qr.trace.Add(Event{Kind: kind, Pipeline: -1, Worker: -1,
				Level: hl, Start: 0, End: qr.trace.Since(time.Now())})
		}
	}

	// ModeVector statically pins every pipeline with a vector kernel to
	// the vectorized engine; pipelines without one (unsupported shape, or
	// NoVector) fall back to the optimized closure tier so the query still
	// completes (§IV-E's degrade-don't-fail discipline, engine edition).
	if e.opts.Mode == ModeVector {
		tC := time.Now()
		freshAny := false
		for i, h := range qr.handles {
			if h.VecKernel() != nil && !h.VecFailed() {
				h.InstallVector()
				continue
			}
			c, fresh, cerr := qr.compiledFor(ent, i, h, jit.Optimized)
			if cerr != nil {
				return nil, cerr
			}
			if fresh {
				freshAny = true
			}
			h.Install(c, LevelOptimized)
		}
		if freshAny {
			st.Compile += time.Since(tC)
		}
	}

	// An adaptive query that hits the cache starts every pipeline in the
	// best tier any earlier execution reached — no re-climbing through
	// bytecode (the controller can still upgrade unoptimized pipelines).
	// Cached native code starts the pipeline in tier 6 immediately: the
	// assembled bytes are keyed by the plan fingerprint, so a warm run
	// pays no assemble latency at all.
	if e.opts.Mode == ModeAdaptive && ent != nil {
		for i, h := range qr.handles {
			if ent.pipes[i].vecBest && h.VecKernel() != nil && !h.VecFailed() {
				// The previous execution finished this pipeline in the
				// vectorized engine: start there. The controller still
				// monitors morsel rates and can demote mid-query.
				h.InstallVector()
			} else if c := ent.pipes[i].compiled[jit.Native]; c != nil && qr.nativeOK(h) {
				h.Install(c, LevelNative)
			} else if c := ent.pipes[i].compiled[jit.Optimized]; c != nil {
				h.Install(c, LevelOptimized)
			} else if c := ent.pipes[i].compiled[jit.Unoptimized]; c != nil {
				h.Install(c, LevelUnoptimized)
			}
		}
	}

	// Runtime state per the code generator's layout.
	qs := rt.NewQueryState(mem, e.opts.Workers, cq.StateBytes, cq.LocalBytes)
	for _, jd := range cq.Joins {
		qs.AddJoin(jd.TupleSize, jd.StateOff, jd.Filter)
	}
	for _, ad := range cq.Aggs {
		qs.AddAgg(ad.EntrySize, ad.Keys, ad.Aggs, ad.LocalOff, ad.Scalar)
	}
	for _, od := range cq.Outs {
		qs.AddOut(od.RowSize)
	}
	for _, p := range cq.Patterns {
		qs.AddPattern(p)
	}
	qs.Eng = qr
	qr.qs = qs

	names := make([]string, len(cq.Module.Externs))
	for i, ex := range cq.Module.Externs {
		names[i] = ex.Name
	}
	funcs, err := e.reg.Bind(names)
	if err != nil {
		return nil, err
	}
	for w := 0; w < e.opts.Workers; w++ {
		qr.ctxs = append(qr.ctxs, &rt.Ctx{Mem: mem, Funcs: funcs, Worker: w, Query: qs})
	}
	qr.coord = &rt.Ctx{Mem: mem, Funcs: funcs, Worker: 0, Query: qs}
	return qr, nil
}

// compiledFor returns the compiled variant of pipeline i at the given
// tier, reusing the cached artifact when present; fresh reports whether a
// compilation actually ran (and was published to the cache).
func (qr *queryRun) compiledFor(ent *cachedPlan, i int, h *Handle, level jit.Level) (c *jit.Compiled, fresh bool, err error) {
	if ent != nil {
		if c := ent.pipes[i].compiled[level]; c != nil {
			return c, false, nil
		}
	}
	if c, err = jit.CompileOpts(h.Fn, level, h.Prog, qr.jitOpts()); err != nil {
		return nil, false, err
	}
	if qr.eng.cache != nil {
		qr.eng.cache.addCompiled(qr.fp, i, level, c)
	}
	return c, true, nil
}

// nativeOK reports whether the native tier may be proposed for h: the
// platform has a backend, the tier is not disabled, and no earlier native
// compilation of this function has failed.
func (qr *queryRun) nativeOK(h *Handle) bool {
	return asm.Supported() && !qr.eng.opts.NoNative && !h.NativeFailed()
}

// jitOpts returns the backend options every compilation of this query
// uses (the fingerprint carries them, so cached artifacts match).
func (qr *queryRun) jitOpts() jit.Options {
	return jit.Options{NoRegAlloc: qr.eng.opts.NoRegAlloc}
}

// modelCompileTime returns the simulated whole-module compile latency.
func (qr *queryRun) modelCompileTime(l Level, moduleInstrs, maxFn int) time.Duration {
	m := qr.eng.opts.Cost
	if l == LevelNative {
		return m.NativeBase + time.Duration(moduleInstrs)*m.NativePerInstr
	}
	if l == LevelOptimized {
		// Linear in the module, super-linear in the largest function.
		d := m.OptBase + time.Duration(moduleInstrs)*m.OptPerInstr
		if m.OptCubic > 0 {
			n := float64(maxFn)
			d += time.Duration(m.OptCubic * n * n * n * float64(time.Second))
		}
		return d
	}
	return m.UnoptBase + time.Duration(moduleInstrs)*m.UnoptPerInstr
}

// sleepCtx sleeps d unless ctx is cancelled first; it reports whether the
// full duration elapsed. Simulated compile latencies can reach hundreds of
// milliseconds, so a deadline must be able to interrupt them.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sleepUnlessCancelled is the background-compile variant of sleepCtx: it
// polls the query's cancellation flag so a cancelled query frees its
// compile-pool slot within a few milliseconds.
func (qr *queryRun) sleepUnlessCancelled(d time.Duration) bool {
	const step = 2 * time.Millisecond
	for d > 0 {
		if qr.cancelled.Load() {
			return false
		}
		s := d
		if s > step {
			s = step
		}
		time.Sleep(s)
		d -= s
	}
	return !qr.cancelled.Load()
}

func maxFnInstrs(cq *codegen.Query) int {
	max := 0
	for _, f := range cq.Module.Funcs {
		if n := f.NumInstrs(); n > max {
			max = n
		}
	}
	return max
}

// execute interprets queryStart, which triggers the pipelines through the
// pipeline_run extern; the final pipeline leaves the result rows in the
// output set's arenas.
func (qr *queryRun) execute() error {
	args := []uint64{qr.qs.StateAddr, qr.qs.Locals[0], 0, 0}
	err := rt.CatchTrap(func() {
		qr.queryStart.Run(qr.coord, args)
	})
	qr.coord.ResetRegs()
	// A recorded failure wins over the trap that unwound queryStart: the
	// trap is only the unwind vehicle (worker traps re-panic themselves;
	// cancellation unwinds with a TrapUser whose cause is in failed).
	qr.failMu.Lock()
	if qr.failed != nil {
		err = qr.failed
	}
	qr.failMu.Unlock()
	return err
}

func (qr *queryRun) fail(err error) {
	qr.failMu.Lock()
	if qr.failed == nil {
		qr.failed = err
	}
	qr.failMu.Unlock()
}

// collect moves every newly published output record into the result set,
// stopping at the plan's LIMIT when it applies to arrival order, and hands
// each new run to the consumer of a streamed result. A consumer error
// cancels the query; later runs are collected but no longer emitted.
func (qr *queryRun) collect() {
	rs, out := qr.result, qr.qs.Outs[0]
	for w := range qr.taken {
		qr.taken[w] = out.Spans(w, qr.taken[w], func(recs []byte) {
			if qr.limit >= 0 && rs.n+len(recs)/rs.rowSize > qr.limit {
				recs = recs[:(qr.limit-rs.n)*rs.rowSize]
			}
			if len(recs) == 0 {
				return
			}
			rs.add(recs)
			if qr.emit == nil || qr.emitErr != nil {
				return
			}
			t0 := time.Now()
			qr.emitErr = qr.emit(Rows{rs: rs, recs: recs})
			qr.emitDur += time.Since(t0)
			if qr.emitErr != nil {
				qr.cancel(fmt.Errorf("result consumer: %w", qr.emitErr))
			}
		})
	}
}

// streamPipeline runs the final pipeline of a streamed result: the pool
// executes the morsels as always, and this coordinator — which would
// otherwise only block until they drain — emits each morsel's rows as its
// worker publishes them. Workers never wait for the consumer; rows it has
// not taken yet simply stay in the arenas, and the rest is emitted after
// execution (RunPlanOpts).
func (qr *queryRun) streamPipeline(j *pipelineJob) {
	done := qr.eng.sched.StartTenant(j, qr.tenant)
	// Execution ends when this pipeline does. The coordinator may be
	// inside a socket write at that moment and for long after (a client
	// that stopped reading), so the ticket is returned from here.
	go func() {
		<-done
		qr.release()
	}()
	for {
		select {
		case <-done:
			return
		case <-j.out.Ready():
			qr.collect()
		}
	}
}

// progress tracks one pipeline run: the work-claiming cursor with
// dynamically growing morsels, per-worker processing rates, and the
// single-evaluator gate of the controller (§III-C).
type progress struct {
	total   int64
	work    int64 // total minus zone-map-pruned tuples
	cursor  atomic.Int64
	done    atomic.Int64
	claims  atomic.Int64
	base    int64
	cap     int64
	grow    int64
	started time.Time

	// Zone-map pruning (nil when the scan has no prunable blocks): the
	// dispatcher never hands out a morsel intersecting a pruned block.
	pruned    []bool
	blockRows int64

	rates    []atomic.Uint64 // per worker slot: float64 bits, tuples/sec
	evalGate atomic.Bool

	// Demotion bookkeeping: the measured rate (float64 bits) and tier just
	// before native code was installed, and how many controller
	// evaluations have run since. After a short warmup, the controller
	// compares the native rate against the rate the cost model predicted
	// from the pre-native measurement and demotes the pipeline out of
	// native when it badly underperforms (run-time misprediction, §III-C).
	preNativeRate atomic.Uint64
	preNativeLvl  atomic.Int32
	nativeEvals   atomic.Int32

	// Engine-demotion bookkeeping, mirroring the native fields: the rate
	// and tier just before the vectorized engine was installed, and the
	// evaluations since. The same promote-then-verify discipline applies
	// to engine selection: observed morsel rates arbitrate, and a
	// vectorized pipeline badly underperforming its prediction is demoted
	// back to the compiled tier it left.
	preVecRate atomic.Uint64
	preVecLvl  atomic.Int32
	vecEvals   atomic.Int32

	// executing counts pool workers currently inside a morsel of this
	// pipeline — the query's *granted* parallelism. Under concurrent load
	// a query holds only a fraction of the machine, so the controller's
	// extrapolation must use this, not the configured worker count.
	executing atomic.Int32
}

func newProgress(total int64, workers int, o Options) *progress {
	return &progress{
		total: total, work: total, started: time.Now(),
		base: o.MorselSize, cap: o.MorselCap, grow: o.MorselGrowEvery,
		rates: make([]atomic.Uint64, workers),
	}
}

// setPruneMask installs a zone-map mask before workers start; pruned
// tuples leave the remaining work the controller extrapolates over.
func (pr *progress) setPruneMask(pm *pruneMask) {
	pr.pruned = pm.pruned
	pr.blockRows = pm.blockRows
	pr.work = pr.total - pm.prunedTuples
}

// morselSize returns the next morsel's size. Morsels grow geometrically
// (×2 every grow-cadence claims, capped): small morsels early give the
// controller dense rate samples; large morsels later amortize dispatch
// (§III-A).
func (pr *progress) morselSize() int64 {
	n := pr.claims.Add(1) - 1
	size := pr.base << uint(minI64(n/pr.grow, 30))
	if size > pr.cap || size <= 0 {
		size = pr.cap
	}
	return size
}

// claim returns the next morsel. Without a prune mask the cursor is a
// plain fetch-and-add; with one, a CAS loop skips runs of pruned blocks
// and clips morsels at the next pruned boundary, so pruned tuples are
// never dispatched (and never counted as processed work).
func (pr *progress) claim() (int64, int64, bool) {
	size := pr.morselSize()
	if pr.pruned == nil {
		begin := pr.cursor.Add(size) - size
		if begin >= pr.total {
			return 0, 0, false
		}
		end := begin + size
		if end > pr.total {
			end = pr.total
		}
		return begin, end, true
	}
	for {
		begin := pr.cursor.Load()
		if begin >= pr.total {
			return 0, 0, false
		}
		b := begin / pr.blockRows
		if pr.pruned[b] {
			for int(b) < len(pr.pruned) && pr.pruned[b] {
				b++
			}
			skip := b * pr.blockRows
			if skip > pr.total {
				skip = pr.total
			}
			pr.cursor.CompareAndSwap(begin, skip)
			continue
		}
		end := begin + size
		if end > pr.total {
			end = pr.total
		}
		for nb := b + 1; nb*pr.blockRows < end; nb++ {
			if pr.pruned[nb] {
				end = nb * pr.blockRows
				break
			}
		}
		if pr.cursor.CompareAndSwap(begin, end) {
			return begin, end, true
		}
	}
}

// abort drains all remaining morsels (on failure).
func (pr *progress) abort() { pr.cursor.Store(pr.total) }

// report records a finished morsel and the worker's local rate.
func (pr *progress) report(w int, tuples int64, d time.Duration) {
	pr.done.Add(tuples)
	if d > 0 {
		rate := float64(tuples) / d.Seconds()
		pr.rates[w].Store(math.Float64bits(rate))
	}
}

// avgRate averages the workers' most recent rates (Fig. 7's r0).
func (pr *progress) avgRate() float64 {
	sum, n := 0.0, 0
	for i := range pr.rates {
		if bits := pr.rates[i].Load(); bits != 0 {
			sum += math.Float64frombits(bits)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// resetRates clears the samples after a mode switch so the next
// extrapolation measures the new tier (§III-C).
func (pr *progress) resetRates() {
	for i := range pr.rates {
		pr.rates[i].Store(0)
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// runPipeline executes one pipeline across all workers and finalizes its
// sink. It runs on the coordinator goroutine, called from the interpreted
// queryStart through the pipeline_run extern.
func (qr *queryRun) runPipeline(id int) {
	pl := qr.cq.Pipelines[id]
	h := qr.handles[id]
	if qr.trace != nil && pl.DictRewrites > 0 {
		now := qr.trace.Since(time.Now())
		qr.trace.Add(Event{Kind: EvDictRewrite, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Start: now, End: now, Tuples: int64(pl.DictRewrites)})
	}
	total := qr.sourceTotal(pl)
	if total > 0 && !qr.cancelled.Load() {
		pr := newProgress(total, qr.eng.opts.Workers, qr.eng.opts)
		if len(pl.Prune) > 0 && !qr.eng.opts.NoZoneMaps {
			qr.applyZoneMaps(pl, pr, total)
		}
		// The engine's shared pool executes the morsels; this coordinator
		// blocks until the pipeline drains. Under concurrent load the pool
		// interleaves this pipeline's morsels with every other in-flight
		// query's at morsel granularity.
		if j := newPipelineJob(qr, pl, h, pr); qr.emit != nil && j.out != nil {
			qr.streamPipeline(j)
		} else {
			qr.eng.sched.RunTenant(j, qr.tenant)
		}
	}
	qr.checkFailed()
	// Finalize the sink between pipelines. By default the breaker work
	// (join chain linking, aggregation merge) is hash-range partitioned
	// across the worker pool; Options.SerialFinalize retains the
	// single-threaded barrier for comparison.
	if pl.SinkJoin >= 0 {
		ht := qr.qs.Joins[pl.SinkJoin]
		t0 := time.Now()
		parts := 1
		if qr.eng.opts.SerialFinalize {
			ht.Finalize(qr.qs.StateAddr)
		} else {
			parts = ht.FinalizeParallel(qr.qs.StateAddr, qr.breakerParts(), qr.pfor)
		}
		qr.noteFinalize(pl, time.Since(t0), t0, parts, int64(ht.Count))
		// The breaker is the natural observation point of adaptive join
		// ordering: the build ran to completion, so its hash-table count
		// is the relation's true filtered cardinality (replan.go).
		qr.observeBuild(pl, int64(ht.Count))
	}
	if pl.SinkAgg >= 0 {
		set := qr.qs.Aggs[pl.SinkAgg]
		t0 := time.Now()
		parts := 1
		if qr.eng.opts.SerialFinalize {
			set.Finalize()
		} else {
			parts = set.FinalizeParallel(qr.breakerParts(), qr.pfor)
		}
		d := qr.cq.Aggs[pl.SinkAgg]
		qr.mem.Store64(qr.qs.StateAddr+rt.Addr(d.IndexStateOff), set.IndexAddr)
		qr.noteFinalize(pl, time.Since(t0), t0, parts, int64(set.Groups))
	}
	// A cancel that landed during finalize left the breaker half-built;
	// unwind before any later pipeline can read it.
	qr.checkFailed()
}

// checkFailed unwinds the interpreted queryStart if the query failed or
// was cancelled; execute() reports qr.failed as the query error.
func (qr *queryRun) checkFailed() {
	if qr.cancelled.Load() {
		qr.fail(qr.cancelCause())
	}
	qr.failMu.Lock()
	failed := qr.failed
	qr.failMu.Unlock()
	if failed != nil {
		// Unwind the interpreted queryStart; execute() reports qr.failed.
		if t, ok := failed.(*rt.Trap); ok {
			panic(t)
		}
		panic(&rt.Trap{Code: rt.TrapUser})
	}
}

// applyZoneMaps builds the prune mask for a scan pipeline from the
// table's zone maps and installs it on the progress tracker, accounting
// the skipped blocks/tuples in Stats and the trace. Runs on the
// coordinator before any worker claims a morsel.
func (qr *queryRun) applyZoneMaps(pl *codegen.Pipeline, pr *progress, total int64) {
	t0 := time.Now()
	pm := buildPruneMask(pl.Table, pl.Prune)
	d := time.Since(t0)
	qr.stats.PruneTime += d
	qr.stats.PrunableTuples += total
	if pm == nil {
		return
	}
	pr.setPruneMask(pm)
	qr.stats.BlocksPruned += pm.prunedBlocks
	qr.stats.TuplesPruned += pm.prunedTuples
	qr.stats.StringBlocksPruned += pm.prunedStrBlocks
	if qr.trace != nil {
		qr.trace.Add(Event{Kind: EvPrune, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Start: qr.trace.Since(t0), End: qr.trace.Since(t0) + d,
			Tuples: pm.prunedTuples, Parts: int(pm.prunedBlocks)})
	}
}

// noteFinalize accounts one breaker finalization in Stats and the trace.
func (qr *queryRun) noteFinalize(pl *codegen.Pipeline, d time.Duration, t0 time.Time, parts int, tuples int64) {
	qr.stats.Finalize += d
	qr.stats.Finalizes++
	if qr.trace != nil {
		qr.trace.Add(Event{Kind: EvFinalize, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Start: qr.trace.Since(t0), End: qr.trace.Since(t0) + d,
			Tuples: tuples, Parts: parts})
	}
}

// breakerParts returns the partition count for parallel finalization:
// Options.Workers capped by the CPUs actually available and the shared
// pool. Every partition re-scans all build arenas (that is what makes the
// writes disjoint), so partitions beyond real parallelism are pure extra
// scan work.
func (qr *queryRun) breakerParts() int {
	parts := qr.eng.opts.Workers
	if n := runtime.GOMAXPROCS(0); parts > n {
		parts = n
	}
	if n := qr.eng.sched.PoolSize(); parts > n {
		parts = n
	}
	return parts
}

// pfor is the rt.ParallelFor executor backing partitioned finalization: it
// spreads fn(0..n-1) over the engine's shared worker pool, one partition
// per scheduler grant, so breaker finalization interleaves fairly with
// other queries' morsels and observes cancellation between partitions. A
// Trap thrown by a task (aggregate Combine can overflow) is caught on the
// pool worker and re-thrown on the caller, so breaker traps surface
// exactly like serial-finalize traps.
func (qr *queryRun) pfor(n int, fn func(p int)) {
	workers := qr.eng.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for p := 0; p < n; p++ {
			if qr.cancelled.Load() {
				return
			}
			fn(p)
		}
		return
	}
	j := &pforJob{qr: qr, n: n, slots: workers, fn: fn}
	qr.eng.sched.RunTenant(j, qr.tenant)
	if t := j.trapped.Load(); t != nil {
		panic(t)
	}
}

// pforJob adapts a partitioned finalization to the scheduler; each RunSlot
// claims and runs one partition.
type pforJob struct {
	qr      *queryRun
	n       int
	slots   int
	fn      func(p int)
	next    atomic.Int64
	trapped atomic.Pointer[rt.Trap]
}

func (j *pforJob) Slots() int { return j.slots }

func (j *pforJob) RunSlot(int) bool {
	if j.qr.cancelled.Load() || j.trapped.Load() != nil {
		return false
	}
	p := int(j.next.Add(1) - 1)
	if p >= j.n {
		return false
	}
	if err := rt.CatchTrap(func() { j.fn(p) }); err != nil {
		j.trapped.CompareAndSwap(nil, err.(*rt.Trap))
		return false
	}
	return true
}

// sourceTotal returns the number of source tuples of a pipeline — always
// known when the pipeline starts (§III-A).
func (qr *queryRun) sourceTotal(pl *codegen.Pipeline) int64 {
	if pl.Table != nil {
		return int64(pl.Table.Rows())
	}
	return int64(qr.qs.Aggs[pl.AggSource].Groups)
}

// pipelineJob adapts one pipeline run to the scheduler: each RunSlot call
// claims and executes exactly one morsel in an exclusively leased worker
// slot (Fig. 5's dispatch code), records progress, and — in adaptive
// mode — runs the controller. Returning after every morsel is what gives
// the scheduler its morsel-granular fairness and cancellation.
type pipelineJob struct {
	qr   *queryRun
	pl   *codegen.Pipeline
	h    *Handle
	pr   *progress
	args [][]uint64 // per slot, reused across morsels
	// out is the output set the pipeline's sink fills (the final pipeline
	// only): every retired morsel publishes its slot's watermark.
	out *rt.OutSet
}

func newPipelineJob(qr *queryRun, pl *codegen.Pipeline, h *Handle, pr *progress) *pipelineJob {
	j := &pipelineJob{qr: qr, pl: pl, h: h, pr: pr}
	if pl.SinkOut >= 0 {
		j.out = qr.qs.Outs[pl.SinkOut]
	}
	for w := 0; w < qr.eng.opts.Workers; w++ {
		j.args = append(j.args, []uint64{qr.qs.StateAddr, qr.qs.Locals[w], 0, 0})
	}
	return j
}

// Slots grants the query at most Options.Workers concurrent executors —
// its share of the pool, matching its per-slot local arenas.
func (j *pipelineJob) Slots() int { return len(j.args) }

// RunSlot executes one morsel. The preemption point is the cancellation
// check before the claim: a cancel lands within one in-flight morsel per
// executor, never mid-pipeline-scan.
func (j *pipelineJob) RunSlot(slot int) bool {
	qr := j.qr
	if qr.cancelled.Load() {
		return false
	}
	begin, end, ok := j.pr.claim()
	if !ok {
		return false
	}
	ctx := qr.ctxs[slot]
	args := j.args[slot]
	args[2], args[3] = uint64(begin), uint64(end)
	lvl := j.h.Level()
	j.pr.executing.Add(1)
	t0 := time.Now()
	err := rt.CatchTrap(func() { j.h.Dispatch(ctx, args) })
	d := time.Since(t0)
	j.pr.executing.Add(-1)
	if err != nil {
		ctx.ResetRegs()
		qr.fail(err)
		j.pr.abort()
		return false
	}
	if j.out != nil {
		j.out.Publish(slot)
	}
	j.pr.report(slot, end-begin, d)
	if lvl == LevelNative {
		qr.nativeMorsels.Add(1)
	}
	if lvl == LevelVector {
		qr.vectorMorsels.Add(1)
	}
	if qr.trace != nil {
		qr.trace.Add(Event{Kind: EvMorsel, Pipeline: j.pl.ID, Label: j.pl.Label,
			Worker: slot, Level: lvl, Start: qr.trace.Since(t0),
			End: qr.trace.Since(t0) + d, Tuples: end - begin})
	}
	if qr.eng.morselHook != nil {
		qr.eng.morselHook(j.pl.ID, j.h, slot)
	}
	if qr.eng.opts.Mode == ModeAdaptive {
		qr.evaluate(j.pl, j.h, j.pr)
	}
	return true
}

// evaluate implements Fig. 7: extrapolate the remaining pipeline duration
// under each execution mode and launch a background compilation when a
// faster mode wins. Only one worker evaluates at a time, the first
// evaluation is delayed by 1 ms, and an in-flight compilation suppresses
// further evaluation.
func (qr *queryRun) evaluate(pl *codegen.Pipeline, h *Handle, pr *progress) {
	if !pr.evalGate.CompareAndSwap(false, true) {
		return
	}
	defer pr.evalGate.Store(false)
	ceiling := LevelOptimized
	if qr.nativeOK(h) {
		ceiling = LevelNative
	}
	if h.Compiling() {
		return
	}
	if h.Level() == LevelVector {
		qr.maybeDemoteVector(pl, h, pr)
		return
	}
	if h.Level() == LevelNative {
		qr.maybeDemote(pl, h, pr)
		if h.Compiling() {
			return
		}
		// Tier 6 is the closure family's ceiling, but the engine dimension
		// stays open: the vectorized candidate below may still beat native
		// on hash-dense pipelines.
	}
	canVec := qr.vectorOK(h)
	if h.Level() >= ceiling && !canVec {
		return
	}
	if time.Since(pr.started) < time.Millisecond {
		return
	}
	r0 := pr.avgRate()
	if r0 <= 0 {
		return
	}
	m := qr.eng.opts.Cost
	// Remaining work excludes zone-map-pruned tuples: they are never
	// dispatched, so extrapolating over them would overstate the payoff
	// of compiling (§III-C). The parallelism term is the *granted* worker
	// count — under concurrent load the scheduler may lease this query
	// only a fraction of the machine, and extrapolating over workers it
	// does not hold would understate every mode's remaining duration
	// equally but overstate the compile thread's opportunity cost.
	n := float64(pr.work - pr.done.Load())
	w := float64(pr.executing.Load())
	if w < 1 {
		w = 1
	}
	cur := h.Level()
	curSpeed := m.Speedup(cur)

	// t0: stay in the current mode.
	t0 := n / r0 / w
	best := cur
	bestT := t0

	consider := func(l Level, compile time.Duration) {
		if l <= cur {
			return
		}
		c := compile.Seconds()
		r := r0 / curSpeed * m.Speedup(l)
		// While one thread compiles, the remaining w-1 continue at r0.
		rem := n - (w-1)*r0*c
		if rem < 0 {
			rem = 0
		}
		t := c + rem/r/w
		if t < bestT {
			bestT = t
			best = l
		}
	}
	consider(LevelUnoptimized, m.UnoptTime(h.Instrs))
	consider(LevelOptimized, m.OptTime(h.Instrs))
	if qr.nativeOK(h) {
		consider(LevelNative, m.NativeTime(h.Instrs))
	}

	if canVec {
		vecSpeed := m.SpeedupVecCompute
		if pl.Vec != nil && pl.Vec.HashDense {
			vecSpeed = m.SpeedupVecHash
		}
		// The kernel is pre-staged: installing it costs no compile time, so
		// the engine candidate is a pure throughput comparison.
		r := r0 / curSpeed * vecSpeed
		if t := n / r / w; t < bestT {
			bestT = t
			best = LevelVector
		}
	}

	if best == cur {
		return
	}
	if !h.BeginCompile() {
		return
	}
	if best == LevelVector {
		// Engine switch: publish the kernel right here — there is nothing
		// to compile. Record the demotion baseline first, same discipline
		// as native promotion.
		pr.preVecRate.Store(math.Float64bits(r0))
		pr.preVecLvl.Store(int32(cur))
		pr.vecEvals.Store(0)
		h.InstallVector()
		qr.engineSwitches.Add(1)
		pr.resetRates()
		if qr.trace != nil {
			now := qr.trace.Since(time.Now())
			qr.trace.Add(Event{Kind: EvEngine, Pipeline: pl.ID, Label: pl.Label,
				Worker: -1, Level: LevelVector, Start: now, End: now})
		}
		return
	}
	qr.stats.Compilations++
	qr.eng.pool.submit(func() { qr.compileTask(pl, h, pr, best) })
}

// vectorOK reports whether the vectorized engine may be proposed for h:
// the tier is enabled, the pipeline compiled to a kernel, and no earlier
// demotion latched the engine off.
func (qr *queryRun) vectorOK(h *Handle) bool {
	return !qr.eng.opts.NoVector && !h.VecFailed() && h.VecKernel() != nil
}

// vecDemoteWarmup is the number of post-install controller evaluations
// before the engine-demotion check engages (mirrors demoteWarmup).
const vecDemoteWarmup = 3

// maybeDemoteVector checks a vectorized pipeline against the rate the
// cost model promised when the controller switched engines. The rate
// measured just before the switch, scaled by the modeled speedup ratio,
// is the prediction; the engine delivering under demoteMargin of it is a
// misprediction (e.g. a selective filter chain where batching evaluates
// lanes compiled code would have skipped). The controller then flips the
// pipeline back to the compiled tier it left — the variant is still on
// the handle, so demotion costs nothing — and latches the engine off for
// this pipeline. Runs under the evaluation gate.
func (qr *queryRun) maybeDemoteVector(pl *codegen.Pipeline, h *Handle, pr *progress) {
	bits := pr.preVecRate.Load()
	if bits == 0 {
		return // static ModeVector: no baseline, no demotion
	}
	if pr.vecEvals.Add(1) < vecDemoteWarmup {
		return
	}
	r0 := pr.avgRate()
	if r0 <= 0 {
		return
	}
	m := qr.eng.opts.Cost
	prev := Level(pr.preVecLvl.Load())
	vecSpeed := m.SpeedupVecCompute
	if pl.Vec != nil && pl.Vec.HashDense {
		vecSpeed = m.SpeedupVecHash
	}
	predicted := math.Float64frombits(bits) / m.Speedup(prev) * vecSpeed
	if r0 >= predicted*demoteMargin {
		return
	}
	if !h.BeginCompile() {
		return
	}
	pr.preVecRate.Store(0)
	h.DemoteVector(prev)
	qr.engineSwitches.Add(1)
	pr.resetRates()
	if qr.trace != nil {
		now := qr.trace.Since(time.Now())
		qr.trace.Add(Event{Kind: EvEngine, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Level: prev, Start: now, End: now})
	}
}

// demoteMargin is the fraction of the predicted native rate the measured
// native rate must reach; below it the controller demotes out of native.
const demoteMargin = 0.5

// demoteWarmup is the number of post-install controller evaluations (one
// per finished morsel) before the demotion check engages, so the
// comparison sees settled rate samples, not the first morsel's cold code.
const demoteWarmup = 3

// maybeDemote checks a native pipeline against the rate the cost model
// promised when the controller chose tier 6. The rate measured just
// before native code was installed, scaled by the modeled speedup ratio,
// is the prediction; native code delivering under demoteMargin of it is a
// misprediction (e.g. an exit-heavy pipeline bouncing between machine
// code and Go on every tuple). The controller then demotes the pipeline
// to optimized closures, latches the native failure so tier 6 is not
// re-proposed for this function, and counts the demotion in
// Stats.NativeFallbacks. Runs under the evaluation gate.
func (qr *queryRun) maybeDemote(pl *codegen.Pipeline, h *Handle, pr *progress) {
	bits := pr.preNativeRate.Load()
	if bits == 0 {
		return // native came from the cache or a static mode: no baseline
	}
	if pr.nativeEvals.Add(1) < demoteWarmup {
		return
	}
	r0 := pr.avgRate()
	if r0 <= 0 {
		return
	}
	m := qr.eng.opts.Cost
	prev := Level(pr.preNativeLvl.Load())
	predicted := math.Float64frombits(bits) / m.Speedup(prev) * m.SpeedupNative
	if r0 >= predicted*demoteMargin {
		return
	}
	if !h.BeginCompile() {
		return
	}
	pr.preNativeRate.Store(0)
	qr.eng.pool.submit(func() { qr.demoteTask(pl, h, pr) })
}

// demoteTask installs the optimized closure variant in place of
// underperforming native code. Mid-morsel safety is the same
// variant-swap argument as promotion: in-flight morsels finish in native
// code against the same runtime state, later claims dispatch the closure
// (§IV-E).
func (qr *queryRun) demoteTask(pl *codegen.Pipeline, h *Handle, pr *progress) {
	if qr.cancelled.Load() {
		h.AbortCompile()
		return
	}
	t0 := time.Now()
	c, err := jit.CompileOpts(h.Fn, jit.Optimized, h.Prog, qr.jitOpts())
	if err != nil {
		h.AbortCompile()
		qr.fail(fmt.Errorf("exec: demotion compile of %s: %w", h.Fn.Name, err))
		pr.abort()
		return
	}
	h.MarkNativeFailed()
	qr.nativeFallbacks.Add(1)
	h.Install(c, LevelOptimized)
	if qr.eng.cache != nil {
		qr.eng.cache.addCompiled(qr.fp, pl.ID, jit.Optimized, c)
	}
	pr.resetRates()
	if qr.trace != nil {
		now := time.Now()
		// An EvNative event whose Level is not LevelNative is a demotion
		// (aqetrace renders it as such).
		qr.trace.Add(Event{Kind: EvNative, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Level: LevelOptimized, Start: qr.trace.Since(t0),
			End: qr.trace.Since(now)})
	}
}

// compileTask runs on a shared compile-pool worker: it (optionally) sleeps
// the modeled LLVM-scale latency, really compiles the function, installs
// the variant, publishes it to the cache, and resets the rate samples.
func (qr *queryRun) compileTask(pl *codegen.Pipeline, h *Handle, pr *progress, l Level) {
	if qr.cancelled.Load() {
		h.AbortCompile()
		return
	}
	t0 := time.Now()
	m := qr.eng.opts.Cost
	if m.Simulate {
		var d time.Duration
		switch l {
		case LevelNative:
			d = m.NativeTime(h.Instrs)
		case LevelOptimized:
			d = m.OptTime(h.Instrs)
		default:
			d = m.UnoptTime(h.Instrs)
		}
		if !qr.sleepUnlessCancelled(d) {
			h.AbortCompile()
			return
		}
	}
	level := jit.Unoptimized
	switch l {
	case LevelOptimized:
		level = jit.Optimized
	case LevelNative:
		level = jit.Native
	}
	c, err := jit.CompileOpts(h.Fn, level, h.Prog, qr.jitOpts())
	if err != nil && l == LevelNative {
		// Native assembly failed (unsupported op, exec-memory exhaustion):
		// degrade this function to the optimized closure tier and latch the
		// failure so the controller stops proposing tier 6 for it. The
		// query keeps running either way (§IV-E).
		h.MarkNativeFailed()
		qr.nativeFallbacks.Add(1)
		l, level = LevelOptimized, jit.Optimized
		c, err = jit.CompileOpts(h.Fn, level, h.Prog, qr.jitOpts())
	}
	if err != nil {
		h.AbortCompile()
		qr.fail(fmt.Errorf("exec: background compile of %s: %w", h.Fn.Name, err))
		pr.abort()
		return
	}
	if l == LevelNative {
		qr.nativeCompiles.Add(1)
		// Record the demotion baseline: the rate samples still measure the
		// tier native is about to replace.
		pr.preNativeRate.Store(math.Float64bits(pr.avgRate()))
		pr.preNativeLvl.Store(int32(h.Level()))
		pr.nativeEvals.Store(0)
	}
	h.Install(c, l)
	if qr.eng.cache != nil {
		qr.eng.cache.addCompiled(qr.fp, pl.ID, level, c)
	}
	pr.resetRates()
	if qr.trace != nil {
		now := time.Now()
		kind := EvCompile
		if l == LevelNative {
			kind = EvNative
		}
		qr.trace.Add(Event{Kind: kind, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Level: l, Start: qr.trace.Since(t0), End: qr.trace.Since(now)})
	}
}
