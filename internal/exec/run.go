package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vm"
)

// queryRun is the runtime state of one plan's execution.
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

	// Machine-code counters, folded into Stats when the run finishes. They
	// are atomics on the run (not fields of Stats) because workers tick
	// them concurrently: every native morsel, and the controller's
	// fallbacks, count on the pool worker that ran them.
	nativeMorsels   atomic.Int64
	nativeFallbacks atomic.Int64
}

// cancel requests cooperative termination: workers stop claiming morsels,
// finalize stops claiming partitions, and a worker sleeping out a modeled
// compile latency stops. Idempotent; the first cause wins.
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
// plan's entry), and builds the runtime state the code generator's
// descriptors require. It compiles and translates nothing: a static mode
// does both at the start of execute, the adaptive mode per pipeline
// (start). The trace (nil unless tracing) is created by the caller so its
// origin covers the admission wait.
func (e *Engine) newQueryRun(cq *codegen.Query, mem *rt.Memory, st *Stats, tr *Trace) (*queryRun, error) {
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
		h := newHandle(pl.Fn, pipes[i], e.nativeOff)
		h.UseIRInterp = e.opts.Mode == ModeIRInterp
		if p := pipes[i].prog; p != nil {
			qr.noteProgram(p)
		}
		qr.handles = append(qr.handles, h)
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

// bytecode gives pipeline i its bytecode program unless its handle has one:
// the one translation there is. It runs on the coordinator before the
// pipeline's job starts, so the translation is the query's Stats.Translate
// and the program is on the handle before any morsel; a failed translation
// is the query's error. The program is published to the plan cache like
// any compiled variant, and counts in Stats.RegFileBytes and
// Stats.FusedOps.
func (qr *queryRun) bytecode(i int) error {
	h := qr.handles[i]
	if h.prog != nil {
		return nil
	}
	t0 := time.Now()
	p, err := vm.Translate(h.Fn, qr.eng.opts.VM)
	if err != nil {
		return err
	}
	h.prog = p
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

// giveUp is the one fallback rule: native code will not run for handle h —
// ruled out from the start (mode, platform) or its compilation failed — so
// it is ruled out for the rest of the run and the pipeline stays in
// bytecode. Only assembly fails at run time, for a reason of the
// function's or the host's (an op outside the templates, no executable
// memory). Each pipeline given up counts once in NativeFallbacks.
func (qr *queryRun) giveUp(h *Handle) {
	h.DisableNative()
	qr.nativeFallbacks.Add(1)
}

// installNative is the one compile path — a static mode's up-front loop,
// start and the controller all take it, for a pipeline still in bytecode.
// It assembles the engine's machine code (Engine.tier) for pipeline i,
// counts it in Stats.Compilations, publishes it to the cache and installs
// it on the handle: one store. Native code that is ruled out or will not
// compile is given up (giveUp), leaving the pipeline in bytecode. It
// reports whether native code is installed. It runs on the coordinator or
// on the one worker that holds the pipeline's evalGate, so the plain
// counter is safe.
func (qr *queryRun) installNative(i int) bool {
	h := qr.handles[i]
	if h.NativeOff() {
		qr.giveUp(h)
		return false
	}
	c, err := jit.Compile(h.Fn, qr.eng.tier, nil)
	if err != nil {
		qr.giveUp(h)
		return false
	}
	qr.stats.Compilations++
	if qr.eng.cache != nil {
		qr.eng.cache.addCompiled(qr.fp, i, c)
	}
	h.native.Store(c)
	return true
}

// sleepCompile models every simulated compilation, the controller's and a
// static mode's: the goroutine that compiles sleeps its modeled latency d
// in poll steps, so that a cancel, or a trap another worker records, frees
// it — and with it the pipeline or the query — within one step. It reports
// whether d elapsed. The steps sleep toward one deadline, so the oversleep
// of each step does not add up over a multi-second compile.
func (qr *queryRun) sleepCompile(d time.Duration) bool {
	const step = 2 * time.Millisecond
	for end := time.Now().Add(d); qr.err() == nil; {
		left := time.Until(end)
		if left <= 0 {
			return true
		}
		time.Sleep(min(left, step))
	}
	return false
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
// the output set's arenas. A static mode first compiles and translates the
// whole module (prepareStatic), under the caller's cancel watcher.
func (qr *queryRun) execute() error {
	if err := qr.prepareStatic(); err != nil {
		return err
	}
	for id := range qr.cq.Pipelines {
		if err := qr.runPipeline(id); err != nil {
			return err
		}
	}
	return nil
}

// prepareStatic prepares a static mode's pipelines before any runs. The
// compiled modes put every pipeline in native code, single-threaded: the
// up-front compilation of the whole module (§II-A), the latency the
// adaptive mode exists to avoid. A pipeline whose native code is ruled out
// or fails to compile runs bytecode (giveUp). A cache hit skips both the
// compilation and its simulated latency: the artifact exists, so there is
// nothing to wait for. Then a static mode translates, up front, only what
// it runs in bytecode; the IR interpreter runs none.
func (qr *queryRun) prepareStatic() error {
	e := qr.eng
	if e.opts.Mode.level() == LevelNative {
		tC := time.Now()
		compiledAny, installed := false, false
		for i, h := range qr.handles {
			// The plan cache's machine code is installed already (newHandle).
			if h.Level() == LevelBytecode && qr.installNative(i) {
				compiledAny = true
			}
			installed = installed || h.Level() == LevelNative
		}
		// Adopting cached variants costs nothing; only fresh compilation
		// counts, so warm runs report zero compile time.
		if compiledAny {
			if m := e.opts.Cost; m.simulate {
				d := m.compileTime(e.tier == jit.Optimized, qr.stats.Instrs, maxFnInstrs(qr.cq))
				if !qr.sleepCompile(d) {
					return qr.err()
				}
			}
			qr.stats.Compile += time.Since(tC)
		}
		if installed && qr.trace != nil {
			qr.noteSwitch(nil, qr.trace.Origin(), time.Now())
		}
	}
	if m := e.opts.Mode; m == ModeAdaptive || m == ModeIRInterp {
		return nil
	}
	for i, h := range qr.handles {
		if h.Level() != LevelBytecode {
			continue
		}
		if err := qr.bytecode(i); err != nil {
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
	claims  atomic.Int64
	base    int64
	cap     int64
	started time.Time

	// Zone-map pruning (nil when the scan has no prunable blocks): the
	// dispatcher never hands out a morsel intersecting a pruned block.
	pruned    []bool
	blockRows int64

	// The tuples and busy nanoseconds of every morsel reported: the work
	// done and the rate.
	done     atomic.Int64
	busy     atomic.Int64
	evalGate atomic.Bool
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

// report records a finished morsel and adds it to the rate sample.
func (pr *progress) report(tuples int64, d time.Duration) {
	pr.done.Add(tuples)
	pr.busy.Add(int64(d))
}

// rate is Fig. 7's r0: the tuples per second of one worker in bytecode,
// over every morsel reported so far, so one stalled morsel weighs as much
// as its share of the busy time; 0 before the first morsel. The controller
// reads it only while the pipeline is in bytecode, and a pipeline never
// leaves native code, so every morsel it covers ran in bytecode.
func (pr *progress) rate() float64 {
	busy := pr.busy.Load()
	if busy <= 0 {
		return 0
	}
	return float64(pr.done.Load()) / time.Duration(busy).Seconds()
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
		parts := ht.Finalize(qr.qs.StateAddr, qr.grant(), qr.pfor)
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
		parts := set.Finalize(qr.grant(), qr.pfor)
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
// code, installed when the handle was created. Otherwise the pipeline is
// assembled to native code right here — on this substrate that costs what
// translating it to bytecode would, and a pipeline started in native code
// is never translated — unless it fits in one initial morsel: it would end
// before the controller's first look, and assembling it costs more than
// interpreting it. A failed assembly rules native code out and leaves the
// pipeline to the controller at bytecode, as on a platform without a
// native back end. Under a model that simulates compile latency (Paper())
// compilation is the expensive thing the paper says it is and must be
// earned from a measured rate, so nothing is compiled here. A pipeline
// left in bytecode is translated here, before its first morsel; a failed
// translation is the query's error.
//
// Native code entered here is final, like every promotion: a pipeline it is
// wrong for stays there for this run, and is started there every time.
func (qr *queryRun) start(pl *codegen.Pipeline, h *Handle, pr *progress) error {
	if qr.eng.opts.Mode != ModeAdaptive || h.Level() == LevelNative {
		return nil
	}
	if !h.NativeOff() && !qr.eng.opts.Cost.simulate && pr.work > qr.eng.opts.MorselSize {
		t0 := time.Now()
		ok := qr.installNative(pl.ID)
		qr.stats.Compile += time.Since(t0)
		if ok {
			if qr.trace != nil {
				qr.noteSwitch(pl, t0, time.Now())
			}
			return nil
		}
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

// grant is the parallelism the query's phases can hold: Options.Workers
// capped by the CPUs actually available and the shared pool. It is the
// partition count of a breaker finalize — every partition re-scans all
// build arenas (that is what makes the writes disjoint), so partitions
// beyond real parallelism are pure extra scan work — and the controller's
// w (Fig. 7).
func (qr *queryRun) grant() int {
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
// mode — runs the controller, which may compile in that slot. Returning
// after every morsel is what gives the scheduler its morsel-granular
// fairness and cancellation.
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
// executor, never mid-pipeline-scan. The morsel counts, and is traced, at
// the level Dispatch ran it; after a native morsel the controller has
// nothing to decide, since a promotion is final.
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
	var lvl Level
	t0 := time.Now()
	err := rt.CatchTrap(func() { lvl = j.h.Dispatch(ctx, args) })
	d := time.Since(t0)
	if err != nil {
		qr.fail(err)
		j.pr.abort()
		return false
	}
	if j.out != nil {
		j.out.Publish(slot)
	}
	j.pr.report(end-begin, d)
	if lvl == LevelNative {
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
	if lvl == LevelBytecode && qr.eng.opts.Mode == ModeAdaptive {
		qr.evaluate(j.pl, j.h, j.pr)
	}
	return true
}

// evaluate implements Fig. 7: extrapolate the remaining duration of a
// pipeline in bytecode and in native code and, when native code wins,
// compile it on this worker and promote the pipeline. Only one worker
// evaluates at a time, and the first evaluation is delayed by 1 ms.
func (qr *queryRun) evaluate(pl *codegen.Pipeline, h *Handle, pr *progress) {
	if !pr.evalGate.CompareAndSwap(false, true) {
		return
	}
	defer pr.evalGate.Store(false)
	if h.Level() == LevelNative || h.NativeOff() {
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
	// of compiling (§III-C). w is the query's grant, the workers its
	// pipeline runs on; under concurrent queries the pool may lease it
	// fewer, which only the Paper() model, whose controller compiles,
	// would misprice, and nothing runs such a mix (DESIGN.md).
	n := float64(pr.work - pr.done.Load())
	m := qr.eng.opts.Cost
	if !m.promote(h.Instrs, r0, n, float64(qr.grant())) {
		return
	}
	// This worker is the thread of Fig. 7 that compiles: it keeps its slot
	// lease, one of the query's grants on its tenant, so the other w-1
	// slots run on at r0, and the gate it holds keeps every other worker
	// from evaluating until the compile is done. The promotion is final, as
	// in the paper's controller (§III-C): nothing moves the pipeline back.
	t0 := time.Now()
	if m.simulate && !qr.sleepCompile(m.NativeTime(h.Instrs)) {
		return
	}
	if qr.installNative(pl.ID) && qr.trace != nil {
		qr.noteSwitch(pl, t0, time.Now())
	}
}

// noteSwitch records an install of native code in the trace; pl is nil for
// a static mode's whole module.
func (qr *queryRun) noteSwitch(pl *codegen.Pipeline, start, end time.Time) {
	ev := Event{Kind: EvNative, Pipeline: -1, Worker: -1, Level: LevelNative,
		Start: qr.trace.Since(start), End: qr.trace.Since(end)}
	if pl != nil {
		ev.Pipeline, ev.Label = pl.ID, pl.Label
	}
	qr.trace.Add(ev)
}
