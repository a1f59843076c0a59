// Package exec is the paper's primary contribution: the adaptive execution
// framework (§III). The coordinator runs a query's pipelines one after
// another in Go, in the order codegen emitted them — the paper's
// queryStart — and stops at the first that fails; a failure travels back
// as an error, never as a panic. One rule decides the level a pipeline's first morsel
// runs at (queryRun.start): what an earlier execution left in the plan
// cache, else — where there is a native back end (amd64) and compile
// latency is real, not simulated — machine code assembled on the spot when
// the pipeline is longer than one morsel, because assembling costs here
// what translating would; else bytecode, the paper's start, which is what
// Paper() and every platform without a native back end get. A pipeline is
// translated to bytecode only then, at its start, so one that starts in
// machine code is never translated (a static compiled mode likewise
// translates only the pipelines it could not compile). From there the
// engine tracks per-pipeline progress at morsel boundaries, extrapolates
// the remaining duration in bytecode and in native code (Fig. 7), and
// switches pipelines mid-flight by storing machine code into the function
// handle (Fig. 5), whose code is its level — no work is lost because
// both levels execute identical semantics over the same runtime state
// (§IV-E). The ladder is the paper's, bytecode → native machine code, and
// it is climbed only: a promotion to native code is final. Native code
// that fails to compile is ruled out for the run, which leaves the
// pipeline in bytecode; without a native back end (arm64) every pipeline
// stays there. The paper's optimized machine code — the same back
// end after the IR pass pipeline — is its static baseline: ModeOptimized
// runs it at LevelNative, and no other mode assembles it (Engine.tier).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"aqe/internal/asm"
	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/sched"
	"aqe/internal/storage"
	"aqe/internal/vm"
)

// Mode selects how a query executes.
type Mode int

// Execution modes (§V compares the static modes against adaptive).
// ModeAdaptive, the paper's contribution, is the zero Mode.
// ModeIRInterp directly interprets the SSA graph — the paper's "LLVM IR"
// interpreter baseline of Fig. 2, far slower than the bytecode VM.
// ModeNative statically pins every pipeline to machine code assembled from
// the IR as code generation emitted it — the paper's unoptimized baseline;
// ModeOptimized does the same after the IR pass pipeline. Both leave a
// pipeline in bytecode when the platform or the function is unsupported.
const (
	ModeAdaptive Mode = iota
	ModeBytecode
	ModeOptimized
	ModeIRInterp
	ModeNative
)

// ModeVector runs every pipeline in bytecode.
//
// Deprecated: the vectorized engine it pinned was removed.
const ModeVector = ModeBytecode

// level returns the level a static mode puts every pipeline at before
// execution starts: native for both compiled modes, bytecode for the
// interpreters. The adaptive mode decides per pipeline, when the pipeline
// starts (queryRun.start).
func (m Mode) level() Level {
	if m == ModeNative || m == ModeOptimized {
		return LevelNative
	}
	return LevelBytecode
}

// modeNames are the modes' names, by value: what String prints and
// ParseMode reads.
var modeNames = [...]string{"adaptive", "bytecode", "optimized", "ir-interp", "native"}

func (m Mode) String() string { return modeNames[m] }

// ParseMode returns the mode whose String is name; any other name is an
// error that lists the valid ones.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (valid: %s)", name, strings.Join(modeNames[:], ", "))
}

// Options configures an Engine.
type Options struct {
	// Workers is the maximum number of pool workers granted to one query
	// at a time — its slot count and local-arena count (default 4). The
	// engine no longer spawns this many goroutines per query; morsels run
	// on the shared pool (PoolWorkers).
	Workers int
	// PoolWorkers sizes the engine's shared morsel-execution pool. Every
	// in-flight query's morsels and breaker-finalize partitions are
	// dispatched over these workers with morsel-granular round-robin
	// fairness (default GOMAXPROCS).
	PoolWorkers int
	// MaxConcurrent caps concurrently admitted queries; arrivals beyond
	// the cap wait in a FIFO admission queue and report the wait in
	// Stats.WaitTime (default 8).
	MaxConcurrent int
	// MaxConcurrentPerTenant additionally caps concurrently admitted
	// queries per tenant (0 = no per-tenant cap): a tenant at its quota
	// queues even while global capacity is free, and never blocks other
	// tenants' admissions behind it.
	MaxConcurrentPerTenant int
	// TenantWeights assigns fair-share weights for pool-worker picking
	// (default 1 per tenant): under contention a tenant's morsels receive
	// workers in proportion to its weight.
	TenantWeights map[string]int
	// Mode is the execution mode (default ModeAdaptive).
	Mode Mode
	// Cost is the compile-cost model (default Paper()).
	Cost *CostModel
	// Trace enables per-morsel trace recording.
	Trace bool
	// VM configures the bytecode translator (register allocation
	// strategy, fusion) for ablation experiments.
	VM vm.Options
	// MorselSize overrides the initial morsel size (default 2048).
	MorselSize int64
	// MorselCap bounds the grown morsel size (default 65536 tuples); the
	// size doubles every 8 claims until it reaches the cap.
	MorselCap int64
	// CacheBytes is the byte budget of the plan-fingerprint compilation
	// cache; 0 disables caching (every query translates and compiles from
	// scratch, the paper's experiment setup).
	CacheBytes int64
	// ReplanThreshold is the misestimate factor max(est/obs, obs/est) of
	// an observed build-side cardinality past which a query running with
	// a Replanner reoptimizes its join order mid-flight (default 8).
	// Values <= 1 replan at every breaker whose order the corrected
	// estimates change — the force-trigger mode of the invariance oracle.
	ReplanThreshold float64
	// MaxReplans caps how many times one query may restart on a revised
	// plan (default 2): greedy ordering under exact observed
	// cardinalities is deterministic, so the budget is a backstop, not
	// the convergence argument.
	MaxReplans int
}

// Engine executes plans.
type Engine struct {
	opts  Options
	reg   *rt.Registry
	cache *planCache       // nil when CacheBytes == 0
	sched *sched.Scheduler // admission gate + shared morsel worker pool

	// nativeOff seeds every Handle's: native code is ruled out for the
	// life of the engine, by the mode (ModeBytecode, ModeIRInterp) or the
	// platform (no native back end). Tests set it after New to run an
	// engine without native code on any platform.
	nativeOff bool
	// tier is the flavour of machine code the engine assembles:
	// jit.Optimized for ModeOptimized, jit.Unoptimized for every other mode.
	tier jit.Level

	// morselHook, when set (tests only), runs after every dispatched
	// morsel on the worker goroutine; the mode-switch stress test uses it
	// to force tier changes at every morsel boundary.
	morselHook func(pipeline int, h *Handle, worker int)
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Cost == nil {
		opts.Cost = Paper()
	}
	if opts.MorselSize <= 0 {
		opts.MorselSize = 2048
	}
	if opts.MorselCap <= 0 {
		opts.MorselCap = 65536
	}
	if opts.MorselCap < opts.MorselSize {
		opts.MorselCap = opts.MorselSize
	}
	if opts.PoolWorkers <= 0 {
		opts.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 8
	}
	e := &Engine{opts: opts, reg: rt.NewRegistry(),
		sched: sched.New(sched.Options{PoolWorkers: opts.PoolWorkers,
			MaxQueries:   opts.MaxConcurrent,
			MaxPerTenant: opts.MaxConcurrentPerTenant,
			Weights:      opts.TenantWeights})}
	if opts.CacheBytes > 0 {
		e.cache = newPlanCache(opts.CacheBytes)
	}
	e.nativeOff = opts.Mode == ModeBytecode || opts.Mode == ModeIRInterp || !asm.Supported()
	if opts.Mode == ModeOptimized {
		e.tier = jit.Optimized
	}
	rt.RegisterBuiltins(e.reg)
	return e
}

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// CacheStats snapshots the compilation-cache counters (zero value when
// caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// SchedStats snapshots the scheduler's admission counters: how many
// queries were admitted, how many had to queue, and the accumulated wait.
func (e *Engine) SchedStats() sched.Stats { return e.sched.AdmissionStats() }

// Stats describes one executed query. Of a multi-stage query, durations
// and counts are summed over its stages and FinalLevels lists every
// stage's pipelines in stage order; what describes the result (Rows,
// Fingerprint) is the final stage's (Stats.add).
type Stats struct {
	Codegen time.Duration // plan -> IR
	// Translate is IR -> bytecode: the pipelines this run translated — in a
	// static mode, up front, each one that is to run bytecode; in the
	// adaptive mode each one that starts in bytecode, at its start.
	Translate time.Duration
	// Compile is the compilation the query waited for: a static mode's
	// up-front compilation, and in the adaptive mode the coordinator's
	// assembly of pipelines at their start — never the controller's
	// compilations, which hold one of the pipeline's workers while the
	// others run morsels, and so lie within Exec.
	Compile   time.Duration
	Exec      time.Duration // the pipelines, less start-of-pipeline assembly (Compile) and translation (Translate)
	Finalize  time.Duration // pipeline-breaker wall time (within Exec)
	PruneTime time.Duration // zone-map mask construction (within Exec)
	Sort      time.Duration // root ORDER BY over the output records (after Exec)
	// Emit is the time spent handing the result over: boxing Result.Rows,
	// or inside RunOpts.Emit (encoding and socket writes, for the server).
	// It follows Exec and Sort, except that a streamed result's share of
	// it overlaps the final pipeline and so lies within Exec.
	Emit     time.Duration
	WaitTime time.Duration // admission-queue wait before any work (within Total)
	Total    time.Duration

	// Rows is the number of result rows, counted by the RowSet.
	Rows int64

	// Queued reports that the query waited in the admission queue;
	// Cancelled that it ended early through its context (the Result then
	// carries stats only, no rows).
	Queued    bool
	Cancelled bool

	Instrs       int // IR instructions in the module: the pipelines' worker functions
	Pipelines    int
	FinalLevels  []Level // per pipeline, the tier that finished it
	Compilations int     // machine-code assemblies, in every mode: up front, at pipeline starts and by the controller
	RegFileBytes int     // largest register file of the pipelines' bytecode programs
	FusedOps     int     // macro-ops fused across the pipelines' bytecode programs (§IV-F)
	Finalizes    int     // pipeline breakers finalized, build-side join emits included
	// BuildRows is the number of join build tuples finalized: what the
	// query's hash joins materialized and linked.
	BuildRows int64
	// Replans counts mid-query restarts on a reoptimized join order;
	// EstCardErr is the worst misestimate factor max(est/obs, obs/est)
	// observed at any join-build breaker (0 = no estimated joins ran).
	Replans    int
	EstCardErr float64

	// Machine-code counters, for either flavour: morsels dispatched to
	// machine code, and per-pipeline fallbacks, at most one per pipeline
	// and run: native code was asked for and is ruled out (no back end) or
	// failed to assemble (unsupported op, exec-memory failure), so the
	// pipeline stays in bytecode. A pipeline that runs native code never
	// leaves it.
	NativeMorsels   int64
	NativeFallbacks int64

	// VectorMorsels and EngineSwitches are always 0.
	//
	// Deprecated: the vectorized engine they counted was removed.
	VectorMorsels, EngineSwitches int64

	// Zone-map pruning: blocks/tuples skipped without dispatching, and
	// the total source tuples of scans that carried a prune descriptor
	// (the denominator of the skip rate).
	BlocksPruned   int64
	TuplesPruned   int64
	PrunableTuples int64

	// Dictionary rewrites: string predicates / group keys compiled
	// against dictionary codes (DictHits counts the ones that rewrote;
	// DictRewrites also counts attempts that folded to constants), and
	// blocks pruned by a string conjunct's code-domain zone map.
	DictRewrites       int
	DictHits           int
	StringBlocksPruned int64

	// Fingerprint is the plan fingerprint (abbreviated hex); CacheHit
	// reports whether translation/compilation was served from the cache,
	// and Cache snapshots the engine-wide cache counters at completion.
	Fingerprint string
	CacheHit    bool
	Cache       CacheStats

	// Tenant is the identity the query was admitted under ("" when the
	// caller ran outside any tenant).
	Tenant string
}

// Result is a query result: the schema, the stats, and the rows in one
// of two forms. Callers that did not ask otherwise get Rows, boxed. When
// the rows were consumed through RunOpts.Emit — or feed a later stage of
// a multi-stage query — nothing is boxed: Rows is nil and Set holds the
// segment-backed rows (and with them the query's memory, until the Result
// is dropped).
type Result struct {
	Cols  []string
	Types []expr.Type
	Rows  [][]expr.Datum
	Set   *RowSet
	Stats Stats
	Trace *Trace
}

// ToTable materializes the result as a storage table (stage results are
// scanned by later stages this way), reading output records straight into
// columns when the result is segment-backed.
func (r *Result) ToTable(name string) *storage.Table {
	cols := make([]*storage.Column, len(r.Cols))
	for i, cn := range r.Cols {
		var k storage.Kind
		switch r.Types[i].Kind {
		case expr.KDecimal:
			k = storage.Decimal
		case expr.KDate:
			k = storage.Date
		case expr.KFloat:
			k = storage.Float64
		case expr.KChar:
			k = storage.Char
		case expr.KString:
			k = storage.String
		default:
			k = storage.Int64
		}
		cols[i] = storage.NewColumn(cn, k)
		cols[i].Scale = r.Types[i].Scale
	}
	if r.Set != nil {
		r.Set.appendTo(cols)
		return storage.NewTable(name, cols...)
	}
	for _, row := range r.Rows {
		for i, d := range row {
			switch cols[i].Kind {
			case storage.Float64:
				cols[i].AppendFloat64(d.F)
			case storage.Char:
				cols[i].AppendChar(byte(d.I))
			case storage.String:
				cols[i].AppendString(d.S)
			default:
				cols[i].AppendInt64(d.I)
			}
		}
	}
	return storage.NewTable(name, cols...)
}

// Run executes a multi-stage query: every stage materializes into a table
// visible to later stages; the final stage's rows are the result.
func (e *Engine) Run(q plan.Query) (*Result, error) {
	return e.RunCtx(context.Background(), q)
}

// RunCtx is Run with per-query cancellation and deadline: ctx is checked
// between stages and, inside each stage, at every morsel boundary and
// finalize partition.
func (e *Engine) RunCtx(ctx context.Context, q plan.Query) (*Result, error) {
	return e.RunCtxOpts(ctx, q, RunOpts{})
}

// RunCtxOpts is RunCtx under per-execution options; every stage admits
// and schedules under opts.Tenant, and opts.Emit consumes the final
// stage. Earlier stages stay segment-backed and are read straight into
// the tables later stages scan. Multi-stage plan queries carry no
// prepared-statement parameters, so opts.Params must be nil. Under
// Options.Trace the returned Trace holds every stage's events on the first
// stage's time axis (Fig. 14's Q11), and Stats cover every stage
// (Stats.add).
func (e *Engine) RunCtxOpts(ctx context.Context, q plan.Query, opts RunOpts) (*Result, error) {
	prior := make(map[string]*storage.Table)
	var last *Result
	var trace *Trace
	sum := Stats{CacheHit: true} // a query is served from the cache when every stage is
	for i, st := range q.Stages {
		node := st.Build(prior)
		stage := opts
		if i < len(q.Stages)-1 {
			stage.Emit, stage.unboxed = nil, true
		}
		res, err := e.RunPlanOpts(ctx, node, fmt.Sprintf("%s/%s", q.Name, st.Name), stage)
		if res != nil {
			sum.add(res.Stats)
			res.Stats = sum
		}
		if err != nil {
			return res, fmt.Errorf("%s stage %q: %w", q.Name, st.Name, err)
		}
		if trace == nil {
			trace = res.Trace // nil unless Options.Trace
		} else {
			trace.Merge(res.Trace)
			res.Trace = trace
		}
		if i < len(q.Stages)-1 {
			prior[st.Name] = res.ToTable(st.Name)
		}
		last = res
	}
	return last, nil
}

// add folds the stats of the next stage of a query into s: durations and
// counts sum, FinalLevels appends, flags and worst-case figures combine,
// and the fields that describe the result or the engine are the later
// stage's.
func (s *Stats) add(o Stats) {
	s.Codegen += o.Codegen
	s.Translate += o.Translate
	s.Compile += o.Compile
	s.Exec += o.Exec
	s.Finalize += o.Finalize
	s.PruneTime += o.PruneTime
	s.Sort += o.Sort
	s.Emit += o.Emit
	s.WaitTime += o.WaitTime
	s.Total += o.Total
	s.Rows = o.Rows
	s.Queued = s.Queued || o.Queued
	s.Cancelled = o.Cancelled
	s.Instrs += o.Instrs
	s.Pipelines += o.Pipelines
	s.FinalLevels = append(s.FinalLevels, o.FinalLevels...)
	s.Compilations += o.Compilations
	s.RegFileBytes = max(s.RegFileBytes, o.RegFileBytes)
	s.FusedOps += o.FusedOps
	s.Finalizes += o.Finalizes
	s.BuildRows += o.BuildRows
	s.Replans += o.Replans
	s.EstCardErr = max(s.EstCardErr, o.EstCardErr)
	s.NativeMorsels += o.NativeMorsels
	s.NativeFallbacks += o.NativeFallbacks
	s.BlocksPruned += o.BlocksPruned
	s.TuplesPruned += o.TuplesPruned
	s.PrunableTuples += o.PrunableTuples
	s.DictRewrites += o.DictRewrites
	s.DictHits += o.DictHits
	s.StringBlocksPruned += o.StringBlocksPruned
	s.Fingerprint = o.Fingerprint
	s.CacheHit = s.CacheHit && o.CacheHit
	s.Cache = o.Cache
	s.Tenant = o.Tenant
}

// RunPlan code-generates and executes a single plan.
func (e *Engine) RunPlan(node plan.Node, name string) (*Result, error) {
	return e.RunPlanCtx(context.Background(), node, name)
}

// RunPlanCtx code-generates and executes a single plan under ctx. The
// query first passes the engine's admission gate (FIFO, capped at
// MaxConcurrent in-flight queries); its morsels then run on the shared
// worker pool. Cancelling ctx — or hitting its deadline — stops the query
// within one morsel per granted worker; the error wraps the context cause
// and the returned Result carries the stats (Cancelled, WaitTime) but no
// rows.
func (e *Engine) RunPlanCtx(ctx context.Context, node plan.Node, name string) (*Result, error) {
	return e.RunPlanOpts(ctx, node, name, RunOpts{})
}

// RunOpts carries the per-execution inputs of RunPlanOpts that are not
// part of the plan itself.
type RunOpts struct {
	// Tenant is the identity the query is admitted and scheduled under:
	// it counts against the tenant's MaxConcurrentPerTenant quota, its
	// pool workers are granted by fair-share weight, and the per-tenant
	// admission counters are charged to it. "" runs outside any tenant.
	Tenant string
	// Params are the bound values of the plan's prepared-statement
	// parameters, by index ($1 = Params[0]). Required exactly when the
	// plan contains expr.Param nodes; counts and types must match.
	Params []*expr.Const
	// Replan enables mid-query reoptimization: after every join-build
	// breaker the engine reports the observed cardinality to Replan and,
	// past the misestimate threshold, restarts the query on the revised
	// plan it returns (hash tables rebuilt from base tables; observations
	// and the admission slot kept). Nil runs the plan as given.
	Replan Replanner
	// Emit, when set, consumes the result rows in place of Result.Rows:
	// the engine calls it on the calling goroutine with consecutive
	// windows of the result, in result order, and boxes nothing. When the
	// plan has no ORDER BY the calls start while the final pipeline is
	// still running — each morsel's rows become available as it retires —
	// otherwise they follow the sort. Pool workers never wait for Emit,
	// and the admission ticket is released when execution ends, however
	// long Emit then takes. An error from Emit cancels the query and is
	// returned (wrapped) by RunPlanOpts.
	Emit func(Rows) error

	// unboxed leaves the result segment-backed (Result.Set) without a
	// consumer: an earlier stage of a multi-stage query.
	unboxed bool
}

// RunPlanOpts is the fully-general single-plan entry point: RunPlanCtx
// plus tenant identity, prepared-statement parameter bindings, and
// mid-query reoptimization.
func (e *Engine) RunPlanOpts(ctx context.Context, node plan.Node, name string, opts RunOpts) (*Result, error) {
	rp := opts.Replan
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return &Result{Stats: Stats{Cancelled: true}},
			fmt.Errorf("exec: query %q cancelled: %w", name, context.Cause(ctx))
	}
	var tr *Trace
	if e.opts.Trace {
		tr = NewTrace()
	}
	wait, queued, err := e.sched.AdmitTenant(ctx, opts.Tenant)
	if err != nil {
		st := Stats{WaitTime: wait, Queued: queued, Cancelled: true,
			Tenant: opts.Tenant, Total: time.Since(t0)}
		return &Result{Stats: st},
			fmt.Errorf("exec: query %q cancelled while queued (waited %v): %w", name, wait, err)
	}
	// The ticket is returned when execution ends — before the result is
	// handed over, which can take as long as a client takes to read it —
	// or, on every other path, when this function returns.
	release := sync.OnceFunc(func() { e.sched.ReleaseTenant(opts.Tenant) })
	defer release()
	var st Stats
	st.WaitTime, st.Queued, st.Tenant = wait, queued, opts.Tenant
	if tr != nil && queued {
		tr.Add(Event{Kind: EvAdmit, Pipeline: -1, Worker: -1, Label: name,
			Start: 0, End: tr.Since(time.Now())})
	}
	var ro *reoptState
	if rp != nil {
		threshold := e.opts.ReplanThreshold
		if threshold == 0 {
			threshold = DefaultReplanThreshold
		}
		max := e.opts.MaxReplans
		if max <= 0 {
			max = DefaultMaxReplans
		}
		ro = &reoptState{rp: rp, threshold: threshold, remaining: max}
	}

	cancelled := func(cause error) (*Result, error) {
		st.Cancelled = true
		st.Total = time.Since(t0)
		return &Result{Stats: st},
			fmt.Errorf("exec: query %q cancelled: %w", name, cause)
	}

	// Each iteration is one execution attempt; a replanSignal from the
	// breaker hook restarts the loop on the revised plan. Durations
	// (Codegen/Translate/Exec/...) accumulate across attempts — they are
	// real work this query performed; structural fields (Instrs,
	// Pipelines, Fingerprint) describe the attempt that completed.
	var qr *queryRun
	var cq *codegen.Query
	var mem *rt.Memory
	for {
		if err := ctx.Err(); err != nil {
			return cancelled(context.Cause(ctx))
		}
		tCg := time.Now()
		mem = rt.NewMemory()
		cq, err = codegen.Compile(node, mem, name)
		if err != nil {
			return nil, err
		}
		st.Codegen += time.Since(tCg)
		st.Instrs = cq.Module.NumInstrs()
		st.Pipelines = len(cq.Pipelines)
		st.DictRewrites = cq.DictRewrites
		st.DictHits = cq.DictHits
		// Install the parameter bindings into this attempt's parameter
		// segment. Codegen (and thus binding) reruns on every execution;
		// only translate/compile are served from the cache, so a
		// cached plan still reads fresh values through the segment table.
		if len(cq.Params) > 0 || len(opts.Params) > 0 {
			if err := cq.BindParams(opts.Params); err != nil {
				return nil, fmt.Errorf("exec: query %q: %w", name, err)
			}
		}

		qr, err = e.newQueryRun(cq, mem, &st, tr)
		if err != nil {
			return nil, err
		}
		qr.tenant = opts.Tenant
		qr.reopt = ro
		// Without an ORDER BY the result order is arrival order, so the
		// consumer can run beside the final pipeline. This is decided from
		// the plan alone: a sort needs every row before it can emit one.
		if len(cq.SortKeys) == 0 {
			qr.limit = cq.Limit
			if opts.Emit != nil {
				qr.emit, qr.release = opts.Emit, release
			}
		}
		// The cancellation watcher flips the query's atomic flag the
		// moment ctx dies; every claim loop, finalize partition and
		// modeled compile latency (sleepCompile) polls it, and stop()
		// keeps the watcher from outliving the query.
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() { qr.cancel(context.Cause(ctx)) })
			defer stop()
		}
		// What a static mode's up-front work and start spent assembling or
		// translating pipelines lies inside execute's wall time but is
		// compilation or translation, and is booked there only.
		tExec, compile0, translate0 := time.Now(), st.Compile, st.Translate
		err = qr.execute()
		st.Exec += time.Since(tExec) - (st.Compile - compile0) - (st.Translate - translate0)
		// Fold the run's machine-code counters. Accumulates across replan
		// attempts like the duration fields above.
		st.NativeMorsels += qr.nativeMorsels.Load()
		st.NativeFallbacks += qr.nativeFallbacks.Load()
		if err == nil {
			break
		}
		if rs, ok := err.(*replanSignal); ok {
			st.Replans++
			node = rs.node
			continue
		}
		if qr.cancelled.Load() {
			return cancelled(err)
		}
		return nil, err
	}

	// Execution has ended; what remains is ordering the output records and
	// handing them over — without the ticket, because a consumer can take
	// as long as a client takes to read.
	rs := qr.result
	res := &Result{Cols: rs.Cols, Types: rs.Types, Trace: qr.trace}
	if qr.emit != nil {
		// Streamed: most rows are out already, collect emits the tail.
		release()
		qr.collect()
		res.Set = rs
		st.Emit = qr.emitDur
	} else {
		qr.collect()
		if len(cq.SortKeys) > 0 {
			// ORDER BY + LIMIT keeps only the top k through a bounded
			// heap instead of a full sort.
			tSort := time.Now()
			if err := rs.sort(cq.SortKeys, cq.Limit); err != nil {
				return nil, err
			}
			st.Sort = time.Since(tSort)
		}
		release()
		tEmit := time.Now()
		switch {
		case opts.Emit != nil:
			res.Set = rs
			qr.emitErr = rs.Each(opts.Emit)
		case opts.unboxed:
			res.Set = rs
		default:
			res.Rows = rs.Datums()
		}
		st.Emit = time.Since(tEmit)
	}
	if qr.emitErr != nil {
		return cancelled(fmt.Errorf("result consumer: %w", qr.emitErr))
	}
	st.Rows = int64(rs.Len())
	st.Total = time.Since(t0)
	for _, h := range qr.handles {
		st.FinalLevels = append(st.FinalLevels, h.Level())
	}
	if e.cache != nil {
		st.Cache = e.cache.stats()
	}
	res.Stats = st
	return res, nil
}
