package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/jit"
	"aqe/internal/rt"
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

	handles []*Handle
	ctxs    []*rt.Ctx // per worker slot

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

// err returns what stops the query: the failure a worker recorded (a trap),
// else the cancellation cause, else nil.
func (qr *queryRun) err() error {
	qr.failMu.Lock()
	defer qr.failMu.Unlock()
	switch {
	case qr.failed != nil:
		return qr.failed
	case !qr.cancelled.Load():
		return nil
	case qr.cancelErr != nil:
		return qr.cancelErr
	}
	return context.Canceled
}

// newQueryRun binds externs, creates each pipeline's handle with the
// variants the plan cache holds for it (a fingerprint miss inserts the
// plan's entry), translates the pipelines up front and compiles them for a
// static mode, and builds the runtime state the code generator's
// descriptors require. The adaptive mode translates a pipeline only if it
// is to run in bytecode (start). The trace (nil unless tracing) is created
// by the caller so its origin covers the admission wait.
func (e *Engine) newQueryRun(ctx context.Context, cq *codegen.Query, mem *rt.Memory, st *Stats, tr *Trace) (*queryRun, error) {
	qr := &queryRun{eng: e, cq: cq, mem: mem, stats: st, trace: tr,
		result: newRowSet(mem, cq), taken: make([]int, e.opts.Workers), limit: -1}
	qr.fp = fingerprintOf(cq)
	st.Fingerprint = qr.fp.Short()

	var ent *cachedPlan
	if e.cache != nil {
		if ent = e.cache.lookup(qr.fp); ent != nil && len(ent.pipes) != len(cq.Pipelines) {
			ent = nil // fingerprint collision paranoia: treat as a miss
		}
	}
	var pipes []variants
	if ent != nil {
		// Adopting the cached translation is a few map lookups, not
		// translation work: Stats.Translate stays zero so warm executions
		// (every prepared-statement EXECUTE after the first) report none.
		st.CacheHit = true
		pipes = ent.pipes
	} else {
		pipes = make([]variants, len(cq.Pipelines))
		if e.cache != nil {
			e.cache.insert(qr.fp, len(pipes))
		}
	}
	for i, pl := range cq.Pipelines {
		h := newHandle(pl.Fn, pipes[i], e.disabled, e.opts.VM)
		h.UseIRInterp = e.opts.Mode == ModeIRInterp
		if p := pipes[i].prog; p != nil {
			qr.noteProgram(p)
		}
		qr.handles = append(qr.handles, h)
	}
	if e.opts.Mode != ModeAdaptive {
		for i := range qr.handles {
			if err := qr.bytecode(i); err != nil {
				return nil, err
			}
		}
	}

	// The static modes above bytecode put every pipeline at the mode's
	// level before execution starts, single-threaded; for the compiled
	// ones this is the up-front compilation of the whole module (§II-A),
	// the latency the adaptive mode exists to avoid. A pipeline whose
	// level is disabled or fails to compile runs bytecode (giveUp). A
	// cache hit skips both the compilation and its simulated latency: the
	// artifact exists, so there is nothing to wait for.
	if target := e.opts.Mode.level(); target > LevelBytecode {
		tC := time.Now()
		compiledAny := false
		for i, h := range qr.handles {
			if !h.Disabled().has(target) {
				fresh, err := qr.compile(i, target)
				if err == nil {
					compiledAny = compiledAny || fresh
					h.Install(target)
					continue
				}
			}
			qr.giveUp(h, target)
		}
		// Adopting cached variants costs nothing; only fresh compilation
		// counts, so warm runs report zero compile time.
		if compiledAny {
			if e.opts.Cost.Simulate {
				d := e.opts.Cost.CompileTime(target, st.Instrs, maxFnInstrs(cq))
				if !sleepCtx(ctx, d) {
					return nil, context.Cause(ctx)
				}
			}
			st.Compile += time.Since(tC)
		}
		if qr.trace != nil {
			qr.noteSwitch(nil, LevelBytecode, target, qr.trace.Origin(), time.Now())
		}
	}

	// Runtime state per the code generator's layout.
	qs := rt.NewQueryState(mem, e.opts.Workers, cq.StateBytes, cq.LocalBytes)
	for _, jd := range cq.Joins {
		if jd.Marks != nil {
			qs.AddMarkJoin(jd.TupleSize, jd.StateOff, jd.WinOff, *jd.Marks)
		} else {
			qs.AddJoin(jd.TupleSize, jd.StateOff, jd.WinOff)
		}
	}
	for _, ad := range cq.Aggs {
		qs.AddAgg(ad.EntrySize, ad.Keys, ad.Aggs, ad.LocalOff, ad.Scalar)
	}
	for _, od := range cq.Outs {
		qs.AddOut(od.RowSize, od.WinOff)
	}
	for _, p := range cq.Patterns {
		qs.AddPattern(p)
	}
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
	return qr, nil
}

// bytecode gives pipeline i its bytecode program unless its handle has one.
// It runs on the coordinator, so the translation is the query's
// Stats.Translate; the program is published to the plan cache like any
// compiled variant, and counts in Stats.RegFileBytes and Stats.FusedOps.
func (qr *queryRun) bytecode(i int) error {
	t0 := time.Now()
	p, fresh, err := qr.handles[i].bytecode()
	if !fresh || err != nil {
		return err
	}
	qr.stats.Translate += time.Since(t0)
	qr.noteProgram(p)
	if qr.eng.cache != nil {
		qr.eng.cache.addProgram(qr.fp, i, p)
	}
	return nil
}

// noteProgram accounts a pipeline's bytecode program in the run's stats.
func (qr *queryRun) noteProgram(p *vm.Program) {
	qr.stats.RegFileBytes = max(qr.stats.RegFileBytes, p.RegFileBytes())
	qr.stats.FusedOps += p.Fused
}

// giveUp is the one fallback rule: level l will not run for handle h —
// disabled from the start (mode, platform, options) or its compilation
// failed — so it is disabled for the rest of the run and the pipeline stays
// at the level it is at, which for a static mode and at an adaptive
// pipeline's start is bytecode. Only machine-code
// assembly fails at run time, for a reason of the function's or the
// host's (an op outside the templates, no executable memory). A
// machine-code level given up counts once in NativeFallbacks.
func (qr *queryRun) giveUp(h *Handle, l Level) {
	h.Disable(maskOf(l))
	if machineCode.has(l) {
		qr.nativeFallbacks.Add(1)
	}
}

// compile puts level l's variant on pipeline i's handle unless it is there
// already (cached, or compiled earlier in this run), and reports whether a
// compilation ran; what it produced is also published to the cache.
func (qr *queryRun) compile(i int, l Level) (fresh bool, err error) {
	h := qr.handles[i]
	if h.Has(l) {
		return false, nil
	}
	c, err := jit.Compile(h.Fn, l.jit(), nil)
	if err != nil {
		return false, err
	}
	h.Stage(c)
	qr.nativeCompiles.Add(1)
	if qr.eng.cache != nil {
		qr.eng.cache.addCompiled(qr.fp, i, c)
	}
	return true, nil
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

// execute is the paper's queryStart (Fig. 4): it runs the pipelines in
// dependency order, which is the order codegen emitted them in, and stops
// at the first that fails. The final pipeline leaves the result rows in
// the output set's arenas.
func (qr *queryRun) execute() error {
	for id := range qr.cq.Pipelines {
		if err := qr.runPipeline(id); err != nil {
			return err
		}
	}
	return nil
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
// dynamically growing morsels, the processing rate at the current level,
// and the single-evaluator gate of the controller (§III-C).
type progress struct {
	total   int64
	work    int64 // total minus zone-map-pruned tuples
	cursor  atomic.Int64
	done    atomic.Int64
	claims  atomic.Int64
	base    int64
	cap     int64
	started time.Time

	// Zone-map pruning (nil when the scan has no prunable blocks): the
	// dispatcher never hands out a morsel intersecting a pruned block.
	pruned    []bool
	blockRows int64

	// The tuples and busy nanoseconds of the morsels that ran at the
	// pipeline's current level since it was entered (rate).
	tuples   atomic.Int64
	busy     atomic.Int64
	evalGate atomic.Bool

	// Verification baseline, set when the controller promotes the
	// pipeline: the measured rate (float64 bits; 0 = no baseline) and the
	// level just before the switch, and how many controller evaluations
	// with a rate sample have run since. One of each is enough: a pipeline
	// is at one level at a time (verify).
	preRate atomic.Uint64
	preLvl  atomic.Int32
	evals   atomic.Int32

	// executing counts pool workers currently inside a morsel of this
	// pipeline — the query's *granted* parallelism. Under concurrent load
	// a query holds only a fraction of the machine, so the controller's
	// extrapolation must use this, not the configured worker count.
	executing atomic.Int32
}

func newProgress(total int64, o Options) *progress {
	return &progress{
		total: total, work: total, started: time.Now(),
		base: o.MorselSize, cap: o.MorselCap,
	}
}

// morselGrowEvery is the claim cadence of geometric morsel growth.
const morselGrowEvery = 8

// setPruneMask installs a zone-map mask before workers start; pruned
// tuples leave the remaining work the controller extrapolates over.
func (pr *progress) setPruneMask(pm *pruneMask) {
	pr.pruned = pm.pruned
	pr.blockRows = pm.blockRows
	pr.work = pr.total - pm.prunedTuples
}

// morselSize returns the next morsel's size. Morsels grow geometrically
// (×2 every morselGrowEvery claims, capped): small morsels early give the
// controller dense rate samples; large morsels later amortize dispatch
// (§III-A).
func (pr *progress) morselSize() int64 {
	n := pr.claims.Add(1) - 1
	size := pr.base << uint(minI64(n/morselGrowEvery, 30))
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

// report records a finished morsel and, when it ran at the pipeline's
// current level, adds it to that level's sample: a morsel in flight across
// a switch measured the level just left, not the one the sample is for.
func (pr *progress) report(tuples int64, d time.Duration, current bool) {
	pr.done.Add(tuples)
	if d > 0 && current {
		pr.tuples.Add(tuples)
		pr.busy.Add(int64(d))
	}
}

// rate is Fig. 7's r0: the tuples per second of one worker at the current
// level, over every morsel that ran there since the pipeline entered it,
// so one stalled morsel weighs as much as its share of the busy time; 0
// before the first such morsel.
func (pr *progress) rate() float64 {
	busy := pr.busy.Load()
	if busy <= 0 {
		return 0
	}
	return float64(pr.tuples.Load()) / time.Duration(busy).Seconds()
}

// resetRate clears the sample after a mode switch so the next
// extrapolation measures the new tier (§III-C).
func (pr *progress) resetRate() {
	pr.tuples.Store(0)
	pr.busy.Store(0)
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// runPipeline executes one pipeline across all workers and finalizes its
// sink, on the coordinator goroutine. It returns what stops the query — a
// trap, the cancellation cause, a replan signal — and then no later
// pipeline may run.
func (qr *queryRun) runPipeline(id int) error {
	pl := qr.cq.Pipelines[id]
	h := qr.handles[id]
	if qr.trace != nil && pl.DictRewrites > 0 {
		now := qr.trace.Since(time.Now())
		qr.trace.Add(Event{Kind: EvDictRewrite, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Start: now, End: now, Tuples: int64(pl.DictRewrites)})
	}
	total := qr.sourceTotal(pl)
	var pr *progress
	if total > 0 && !qr.cancelled.Load() {
		pr = newProgress(total, qr.eng.opts)
		if len(pl.Prune) > 0 {
			qr.applyZoneMaps(pl, pr, total)
		}
		if err := qr.start(pl, h, pr); err != nil {
			return err
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
	if err := qr.err(); err != nil {
		return err
	}
	// An aggregate's Combine can overflow while the breaker finalizes, on a
	// pool worker (pfor re-throws it here): the trap is the query's error.
	var replan error
	if trap := rt.CatchTrap(func() { replan = qr.finalize(pl) }); trap != nil {
		qr.fail(trap)
	}
	if replan != nil {
		return replan
	}
	// A cancel that landed during finalize left the breaker half-built;
	// stop before any later pipeline can read it.
	return qr.err()
}

// finalize does pipeline pl's breaker work between pipelines. Join chain
// linking and aggregation merge are hash-range partitioned across the
// worker pool. It returns a replan signal when a join build calls for one.
func (qr *queryRun) finalize(pl *codegen.Pipeline) error {
	if pl.SinkJoin >= 0 {
		ht := qr.qs.Joins[pl.SinkJoin]
		t0 := time.Now()
		parts := ht.Finalize(qr.qs.StateAddr, qr.breakerParts(), qr.pfor)
		qr.noteFinalize(pl, time.Since(t0), t0, parts, int64(ht.Count))
		qr.stats.BuildRows += int64(ht.Count)
		// The breaker is the natural observation point of adaptive join
		// ordering: the build ran to completion, so its hash-table count
		// is the relation's true filtered cardinality (replan.go).
		return qr.observeBuild(pl, int64(ht.Count))
	}
	if pl.SinkAgg >= 0 {
		set := qr.qs.Aggs[pl.SinkAgg]
		t0 := time.Now()
		parts := set.Finalize(qr.breakerParts(), qr.pfor)
		d := qr.cq.Aggs[pl.SinkAgg]
		qr.mem.Store64(qr.qs.StateAddr+rt.Addr(d.IndexStateOff), set.IndexAddr)
		qr.noteFinalize(pl, time.Since(t0), t0, parts, int64(set.Groups))
	}
	if pl.SinkMark >= 0 {
		// The probe of a build-side join has drained (and runPipeline saw
		// no cancel): sum the workers' counts and publish the tuples the
		// join emits for the pipeline that scans them.
		t0 := time.Now()
		n := qr.qs.Joins[pl.SinkMark].Emit(qr.qs.StateAddr)
		qr.noteFinalize(pl, time.Since(t0), t0, 1, int64(n))
	}
	return nil
}

// start decides the level an adaptive pipeline's first morsel runs at. It
// runs on the coordinator between pruning and the hand-over to the
// scheduler, when the work left is known and this goroutine has nothing
// else to do.
//
// What an earlier execution left on the handle comes first: its native
// code. Otherwise the pipeline is assembled to native code right here — on
// this substrate that costs what translating it to bytecode would, and a
// pipeline started in native code is never translated — unless it fits in
// one initial morsel: it would end before the
// controller's first look, and assembling it costs more than interpreting
// it. A failed assembly disables the level and leaves the pipeline to the
// controller at bytecode, as on a platform without a native back end.
// Under a model that simulates compile latency (Paper()) compilation is the
// expensive thing the paper says it is and must be earned from a measured
// rate, so nothing is compiled here. A pipeline left in bytecode is
// translated here, before its first morsel; a failed translation is the
// query's error.
//
// Native code entered here has no baseline rate, so the controller does not
// verify it: a pipeline it is wrong for stays there for this run, and is
// started there every time (ROADMAP direction 1 replaces this with measured
// per-level rates).
func (qr *queryRun) start(pl *codegen.Pipeline, h *Handle, pr *progress) error {
	if qr.eng.opts.Mode != ModeAdaptive {
		return nil
	}
	if h.Disabled().has(LevelNative) {
		return qr.bytecode(pl.ID)
	}
	if h.Has(LevelNative) {
		h.Install(LevelNative)
		return nil
	}
	if !qr.eng.opts.Cost.Simulate && pr.work > qr.eng.opts.MorselSize {
		t0 := time.Now()
		qr.stats.Compilations++
		_, err := qr.compile(pl.ID, LevelNative)
		qr.stats.Compile += time.Since(t0)
		if err == nil {
			h.Install(LevelNative)
			if qr.trace != nil {
				qr.noteSwitch(pl, LevelBytecode, LevelNative, t0, time.Now())
			}
			return nil
		}
		qr.giveUp(h, LevelNative)
	}
	return qr.bytecode(pl.ID)
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

// pfor is the rt.ParallelFor executor backing breaker finalization: it
// spreads fn(0..n-1) over the engine's shared worker pool, one partition
// per scheduler grant — a one-partition finalize included — so breaker
// finalization interleaves fairly with other queries' morsels and observes
// cancellation between partitions. A Trap thrown by a task (aggregate
// Combine can overflow) is caught on the pool worker and re-thrown on the
// caller, so it reaches runPipeline's trap boundary.
func (qr *queryRun) pfor(n int, fn func(p int)) {
	j := &pforJob{qr: qr, n: n, slots: min(qr.eng.opts.Workers, n), fn: fn}
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
	switch {
	case pl.Table != nil:
		return int64(pl.Table.Rows())
	case pl.JoinSource >= 0:
		return int64(qr.qs.Joins[pl.JoinSource].Marks.Emitted)
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
	if qr.eng.dispatchHook != nil {
		qr.eng.dispatchHook(lvl)
	}
	d := time.Since(t0)
	j.pr.executing.Add(-1)
	if err != nil {
		qr.fail(err)
		j.pr.abort()
		return false
	}
	if j.out != nil {
		j.out.Publish(slot)
	}
	j.pr.report(end-begin, d, lvl == j.h.Level())
	if machineCode.has(lvl) {
		qr.nativeMorsels.Add(1)
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
// under each level the handle allows and move the pipeline when a faster
// one wins — at once if its variant is on the handle, else through a
// background compilation. Only one worker evaluates at a time, the first
// evaluation is delayed by 1 ms, and an in-flight compilation suppresses
// further evaluation.
func (qr *queryRun) evaluate(pl *codegen.Pipeline, h *Handle, pr *progress) {
	if !pr.evalGate.CompareAndSwap(false, true) {
		return
	}
	defer pr.evalGate.Store(false)
	if h.Compiling() {
		return
	}
	cur := h.Level()
	if qr.verify(pl, h, pr, cur) {
		return
	}
	allowed := (allLevels &^ h.Disabled()).above(cur)
	if allowed == 0 {
		return
	}
	if time.Since(pr.started) < time.Millisecond {
		return
	}
	r0 := pr.rate()
	if r0 <= 0 {
		return
	}
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
	best := qr.eng.opts.Cost.choose(cur, allowed, h.Instrs, r0, n, w)
	switch {
	case best == cur:
	case h.Has(best):
		qr.switchLevel(pl, h, pr, best, r0, time.Now())
	case h.BeginCompile():
		qr.stats.Compilations++
		qr.eng.pool.submit(func() { qr.compileTask(pl, h, pr, best) })
	}
}

// verifyWarmup is the controller evaluation (one per finished morsel
// with a rate sample of the new level) after a switch at which verify
// makes its one comparison, so it sees settled rate samples, not the
// first morsel's cold code.
const verifyWarmup = 3

// verify is promote-then-verify (§III-C's run-time misprediction), and
// the only place a demotion is decided: it holds the level cur to the rate
// measured at the level the controller promoted the pipeline from, not to
// anything the cost model predicted. A level that settles below that rate
// is a misprediction — native code bouncing into Go on every tuple. The
// level is then disabled for this pipeline and the handle goes back to the
// level it left. Going back costs nothing: the variant is still on the
// handle, in-flight morsels finish where they are against the same
// runtime state (§IV-E). The comparison is made once per switch: a level
// kept at verifyWarmup stays kept. Checked after every later morsel, a
// level as fast as the one it left would be demoted by the first dip of
// its rate, and the level a pipeline ends at would follow timing noise. Reports whether it demoted. Runs under the
// evaluation gate.
func (qr *queryRun) verify(pl *codegen.Pipeline, h *Handle, pr *progress, cur Level) bool {
	bits := pr.preRate.Load()
	if bits == 0 {
		return false // static mode, or level entered by start: no baseline
	}
	r0 := pr.rate()
	if r0 <= 0 || pr.evals.Add(1) != verifyWarmup || r0 >= math.Float64frombits(bits) {
		return false
	}
	if cur == LevelNative {
		qr.nativeFallbacks.Add(1)
	}
	h.Disable(maskOf(cur))
	qr.switchLevel(pl, h, pr, Level(pr.preLvl.Load()), 0, time.Now())
	return true
}

// switchLevel moves a running pipeline to level to, whose variant is on
// the handle, on behalf of the controller. rate is the rate measured at
// the level being left. A promotion keeps it as the baseline verify holds
// the new level to; a demotion (rate 0) leaves no baseline.
func (qr *queryRun) switchLevel(pl *codegen.Pipeline, h *Handle, pr *progress, to Level, rate float64, start time.Time) {
	from := h.Level()
	pr.preRate.Store(math.Float64bits(rate))
	pr.preLvl.Store(int32(from))
	pr.evals.Store(0)
	h.Install(to)
	// The sample measured the level just left (§III-C).
	pr.resetRate()
	if qr.trace != nil {
		qr.noteSwitch(pl, from, to, start, time.Now())
	}
}

// noteSwitch records a level switch in the trace; pl is nil for a static
// mode's whole module. The kind says whether the switch touched native
// code or optimized code only, and Level where the pipeline landed: an
// EvNative event whose Level is a different one is a demotion (aqetrace
// renders it as such).
func (qr *queryRun) noteSwitch(pl *codegen.Pipeline, from, to Level, start, end time.Time) {
	ev := Event{Kind: EvCompile, Pipeline: -1, Worker: -1, Level: to,
		Start: qr.trace.Since(start), End: qr.trace.Since(end)}
	if from == LevelNative || to == LevelNative {
		ev.Kind = EvNative
	}
	if pl != nil {
		ev.Pipeline, ev.Label = pl.ID, pl.Label
	}
	qr.trace.Add(ev)
}

// compileTask runs on a shared compile-pool worker: it (optionally) sleeps
// the modeled compile latency, really compiles the function and switches
// the pipeline over — or, if level l will not compile, disables it and
// leaves the pipeline at its current level (giveUp).
func (qr *queryRun) compileTask(pl *codegen.Pipeline, h *Handle, pr *progress, l Level) {
	if qr.cancelled.Load() {
		h.AbortCompile()
		return
	}
	t0 := time.Now()
	if m := qr.eng.opts.Cost; m.Simulate && !qr.sleepUnlessCancelled(m.CompileTime(l, h.Instrs, h.Instrs)) {
		h.AbortCompile()
		return
	}
	if _, err := qr.compile(pl.ID, l); err != nil {
		qr.giveUp(h, l)
		h.AbortCompile()
		return
	}
	// The rate still measures the level l is about to replace.
	qr.switchLevel(pl, h, pr, l, pr.rate(), t0)
}
