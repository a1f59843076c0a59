package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"aqe"
	"aqe/internal/asm"
	"aqe/internal/codegen"
	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/ir"
	"aqe/internal/jit"
	"aqe/internal/opt"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/sql"
	"aqe/internal/storage"
	"aqe/internal/synth"
	"aqe/internal/tpch"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// The traced run walks every statement through the layers by hand,
// timing each call into a layer's public entry point from outside. The
// program is not instrumented; spans inside it are a later change.

// layerTable accumulates, per layer and statement, one total per
// repetition (a statement's pipelines and stages add up within it).
type layerTable map[string]map[int][]float64

func (t layerTable) add(layer string, stmt, rep int, v float64) {
	if t[layer] == nil {
		t[layer] = map[int][]float64{}
	}
	reps := t[layer][stmt]
	for len(reps) <= rep {
		reps = append(reps, 0)
	}
	reps[rep] += v
	t[layer][stmt] = reps
}

// perStmt reduces each statement's repetitions (median, or min for
// best-of-N) and returns the values in statement order; statements the
// layer never saw are absent.
func (t layerTable) perStmt(layer string, nstmts int, reduce func([]float64) float64) []float64 {
	var out []float64
	for s := 0; s < nstmts; s++ {
		if reps := t[layer][s]; len(reps) > 0 {
			out = append(out, reduce(reps))
		}
	}
	return out
}

// cost is what one request of the uniform statement mix spends in a
// layer: the mean over statements of the per-statement reduction.
func (t layerTable) cost(layer string, nstmts int, reduce func([]float64) float64) float64 {
	return mean(t.perStmt(layer, nstmts, reduce))
}

// layerRun is the state of one traced run's in-process part.
type layerRun struct {
	e    *env
	rec  *recorder
	tbl  layerTable
	sess *aqe.Session

	// Counts taken on repetition 0 only, so they depend on the seed and
	// nothing else.
	irInstrs, pipelines, fusedOps, regfileBytes int
	codeBytes, vecEligible, asmFallbacks        int
	// Sums over every engine run of the walk.
	runs                                         int
	compilations                                 int
	nativeMorsels, vectorMorsels, engineSwitches int64
	tuplesPruned, prunableTuples                 int64
	cacheHits                                    int
	optReplans                                   int
	estCardErr                                   float64
}

// timed runs fn as a child span of parent and adds its duration to the
// layer's total for (stmt, rep).
func (lr *layerRun) timed(layer string, parent, req, stmt, rep int, fn func() error) error {
	id := lr.rec.open(layer, parent, req, stmt)
	t0 := time.Now()
	err := fn()
	lr.tbl.add(layer, stmt, rep, ms(time.Since(t0)))
	lr.rec.close(id)
	if err != nil {
		return fmt.Errorf("%s: %w", layer, err)
	}
	return nil
}

// timer runs fn as the named layer's work; the walk's timer records a
// span, the forced-mode runs pass one that only calls fn.
type timer func(layer string, fn func() error) error

func untimed(_ string, fn func() error) error { return fn() }

// frontEnd turns binding b of s into a plan query and its parameter
// values the way the session layer does, under tm for the SQL layer's
// two calls where the statement has any.
func frontEnd(cat *storage.Catalog, s *stmt, b int, tm timer) (plan.Query, []*expr.Const, error) {
	if s.kind == kindTPCH {
		// Built-in plans bypass SQL; building the plan is the server's
		// TPCHQuery call.
		var q plan.Query
		err := tm("tpch.plan", func() error {
			q = tpch.Query(cat, s.tpch)
			return nil
		})
		return q, nil, err
	}
	var (
		node  plan.Node
		args  []*expr.Const // nil plans an unparameterized query
		bound []*expr.Const
		body  = s.text
	)
	err := tm("sql.parse", func() error {
		if s.kind == kindExec {
			args = []*expr.Const{}
			for _, lit := range s.pool[b] {
				c, err := sql.ParseLiteral(lit)
				if err != nil {
					return err
				}
				args = append(args, c)
			}
			return nil
		}
		st, err := sql.ParseStmt(s.sqlFor(b))
		if err == nil {
			body = st.Body
		}
		return err
	})
	if err != nil {
		return plan.Query{}, nil, err
	}
	err = tm("sql.plan", func() (err error) {
		node, _, bound, err = sql.PlanBind(body, cat, args)
		return err
	})
	if err != nil {
		return plan.Query{}, nil, err
	}
	return plan.SingleStage(s.name, func() plan.Node { return node }), bound, nil
}

// compileLayers takes one stage plan through codegen, bytecode
// translation and every compile tier.
func (lr *layerRun) compileLayers(node plan.Node, si, rep, parent, req int) error {
	var cq *codegen.Query
	err := lr.timed("codegen.compile", parent, req, si, rep, func() (err error) {
		// The options the engine passes by default.
		cq, err = codegen.CompileOpts(node, rt.NewMemory(), lr.e.stmts[si].name,
			codegen.Options{JoinFilter: true})
		return err
	})
	if err != nil {
		return err
	}
	if rep == 0 {
		lr.irInstrs += cq.Module.NumInstrs()
		lr.pipelines += len(cq.Pipelines)
	}
	for _, fn := range append([]*ir.Function{cq.QueryStart}, pipelineFns(cq)...) {
		var prog *vm.Program
		err := lr.timed("vm.translate", parent, req, si, rep, func() (err error) {
			prog, err = vm.Translate(fn, vm.Options{})
			return err
		})
		if err != nil {
			return err
		}
		if fn == cq.QueryStart {
			continue // queryStart is only ever interpreted
		}
		if rep == 0 {
			lr.fusedOps += prog.Fused
			lr.regfileBytes = max(lr.regfileBytes, prog.RegFileBytes())
		}
		// The unoptimized and native back ends split critical edges in
		// place; each gets its own copy, made outside the timer.
		unopt, native := fn.Clone(), fn.Clone()
		if err := lr.timed("jit.unopt_compile", parent, req, si, rep, func() error {
			_, err := jit.Compile(unopt, jit.Unoptimized, prog)
			return err
		}); err != nil {
			return err
		}
		if err := lr.timed("jit.opt_compile", parent, req, si, rep, func() error {
			_, err := jit.Compile(fn, jit.Optimized, prog)
			return err
		}); err != nil {
			return err
		}
		if asm.Supported() {
			var code *asm.Code
			// A function the templates do not cover is the engine's
			// per-pipeline fallback, not a failure of the walk.
			_ = lr.timed("asm.assemble", parent, req, si, rep, func() (err error) {
				code, err = asm.Compile(native)
				return err
			})
			if rep == 0 && code != nil {
				lr.codeBytes += code.SizeBytes()
			}
		}
	}
	for _, pl := range cq.Pipelines {
		var kerr error
		_ = lr.timed("vector.compile", parent, req, si, rep, func() error {
			_, kerr = vector.Compile(pl.Vec)
			return nil // a shape the kernels reject runs compiled instead
		})
		if rep == 0 && kerr == nil {
			lr.vecEligible++
		}
	}
	return nil
}

func pipelineFns(cq *codegen.Query) []*ir.Function {
	fns := make([]*ir.Function, len(cq.Pipelines))
	for i, pl := range cq.Pipelines {
		fns[i] = pl.Fn
	}
	return fns
}

// runStages executes a plan query stage by stage like Engine.RunCtxOpts,
// but keeps every stage's stats: the engine reports only the last.
func runStages(eng *exec.Engine, q plan.Query, params []*expr.Const, each func(plan.Node) error) ([]exec.Stats, error) {
	prior := map[string]*storage.Table{}
	var all []exec.Stats
	for i, st := range q.Stages {
		node := st.Build(prior)
		if each != nil {
			if err := each(node); err != nil {
				return nil, err
			}
		}
		res, err := eng.RunPlanOpts(context.Background(), node, q.Name+"/"+st.Name,
			exec.RunOpts{Params: params})
		if err != nil {
			return nil, fmt.Errorf("%s stage %s: %w", q.Name, st.Name, err)
		}
		all = append(all, res.Stats)
		if i < len(q.Stages)-1 {
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	return all, nil
}

// walk takes statement si through every layer once: front end, the
// compile tiers of each stage, the engine under the workload's own
// configuration, and the session path a wire request takes without the
// socket.
func (lr *layerRun) walk(si, rep int) error {
	s := lr.e.stmts[si]
	b := rep % len(s.pool)
	req := lr.rec.request()
	root := lr.rec.open("walk", -1, req, si)
	defer lr.rec.close(root)

	q, params, err := frontEnd(lr.e.cat, s, b, func(layer string, fn func() error) error {
		return lr.timed(layer, root, req, si, rep, fn)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	// The compile tiers are walked between the stages, where each stage's
	// input tables exist. Their spans are children of exec.run, so its
	// self time is the engine's own.
	run := lr.rec.open("exec.run", root, req, si)
	stats, err := runStages(lr.e.db.Engine(), q, params, func(node plan.Node) error {
		return lr.compileLayers(node, si, rep, run, req)
	})
	lr.rec.close(run)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	for _, st := range stats {
		lr.tbl.add("exec.codegen", si, rep, ms(st.Codegen))
		lr.tbl.add("exec.translate", si, rep, ms(st.Translate))
		lr.tbl.add("exec.compile", si, rep, ms(st.Compile))
		lr.tbl.add("exec.exec", si, rep, ms(st.Exec))
		lr.tbl.add("exec.finalize", si, rep, ms(st.Finalize))
		lr.tbl.add("exec.prune", si, rep, ms(st.PruneTime))
		lr.tbl.add("exec.wait", si, rep, ms(st.WaitTime))
		lr.tbl.add("exec.total", si, rep, ms(st.Total))
		lr.runs++
		lr.compilations += st.Compilations
		lr.nativeMorsels += st.NativeMorsels
		lr.vectorMorsels += st.VectorMorsels
		lr.engineSwitches += st.EngineSwitches
		lr.tuplesPruned += st.TuplesPruned
		lr.prunableTuples += st.PrunableTuples
		if st.CacheHit {
			lr.cacheHits++
		}
	}

	err = lr.timed("session.exec", root, req, si, rep, func() error {
		ctx := context.Background()
		var err error
		switch s.kind {
		case kindTPCH:
			_, err = lr.sess.ExecQuery(ctx, lr.e.db.TPCHQuery(s.tpch))
		case kindExec:
			args := make([]*aqe.Value, len(s.pool[b]))
			for i, lit := range s.pool[b] {
				if args[i], err = aqe.ParseLiteral(lit); err != nil {
					return err
				}
			}
			_, err = lr.sess.Execute(ctx, s.name, args)
		default:
			_, err = lr.sess.Exec(ctx, s.sqlFor(b))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

// walkAll repeats the walk over every statement until the budget is
// spent, at least once and at most maxReps times.
func (lr *layerRun) walkAll(budget time.Duration, maxReps int) error {
	lr.sess = lr.e.db.NewSession("")
	for _, s := range lr.e.stmts {
		if s.kind == kindExec {
			if err := lr.sess.Prepare(s.name, s.text); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	for rep := 0; rep < maxReps; rep++ {
		for si := range lr.e.stmts {
			if err := lr.walk(si, rep); err != nil {
				return err
			}
		}
		if time.Since(t0) > budget {
			break
		}
	}
	return nil
}

// forcedModes are the static engine configurations each statement is
// also run under, warm, to give every tier's execution time on the same
// data: layer name -> mode.
var forcedModes = []struct {
	layer string
	mode  exec.Mode
}{
	{"vm.exec", exec.ModeBytecode},
	{"jit.exec", exec.ModeOptimized},
	{"asm.exec", exec.ModeNative},
	{"vector.exec", exec.ModeVector},
	{"exec.auto", exec.ModeAdaptive},
}

// forced runs every statement under every forced mode, interleaved, until
// the budget is spent (at least twice: the first run of a mode fills its
// engine's plan cache, and the best of the repetitions is what counts).
func (lr *layerRun) forced(budget time.Duration, maxReps int) error {
	engines := make([]*exec.Engine, len(forcedModes))
	for i, fm := range forcedModes {
		engines[i] = exec.New(exec.Options{Workers: lr.e.procs, PoolWorkers: lr.e.procs,
			Mode: fm.mode, Cost: exec.Native(), CacheBytes: 64 << 20})
	}
	t0 := time.Now()
	for rep := 0; rep < maxReps; rep++ {
		for si, s := range lr.e.stmts {
			// Always binding 0: a fixed literal hashes into the plan
			// fingerprint, and only a repeated plan runs warm.
			q, params, err := frontEnd(lr.e.cat, s, 0, untimed)
			if err != nil {
				return err
			}
			for i, fm := range forcedModes {
				req := lr.rec.request()
				id := lr.rec.open(fm.layer, -1, req, si)
				stats, err := runStages(engines[i], q, params, nil)
				lr.rec.close(id)
				if err != nil {
					return fmt.Errorf("%s under %v: %w", s.name, fm.mode, err)
				}
				for _, st := range stats {
					lr.tbl.add(fm.layer, si, rep, ms(st.Exec))
					if rep == 0 && fm.mode == exec.ModeNative {
						lr.asmFallbacks += int(st.NativeFallbacks)
					}
				}
			}
		}
		if rep >= 1 && time.Since(t0) > budget {
			break
		}
	}
	return nil
}

// autoVsBest is the geometric mean over statements of adaptive warm
// execution time over the fastest forced mode's: 1.0 means the
// controller always lands on the best engine.
func (lr *layerRun) autoVsBest() float64 {
	var ratios []float64
	for s := range lr.e.stmts {
		best := math.Inf(1)
		for _, fm := range forcedModes {
			if fm.mode != exec.ModeAdaptive {
				best = math.Min(best, slices.Min(lr.tbl[fm.layer][s]))
			}
		}
		if best > 0 {
			ratios = append(ratios, slices.Min(lr.tbl["exec.auto"][s])/best)
		}
	}
	return geomean(ratios)
}

// optProbe times join ordering on the logical TPC-H queries and the
// misestimated synthetic star, then runs each with its replanner to count
// mid-query replans and the worst cardinality misestimate.
func (lr *layerRun) optProbe(reps int) error {
	fact, dimA, dimB := synth.MisestimateTables(20000)
	logicals := func() []*opt.Logical {
		ls := []*opt.Logical{synth.MisestimateLogical(fact, dimA, dimB)}
		for _, n := range []int{3, 5, 10} {
			if l, ok := tpch.Logical(lr.e.cat, n); ok {
				ls = append(ls, l)
			}
		}
		return ls
	}
	for rep := 0; rep < reps; rep++ {
		for i, l := range logicals() {
			var prep *opt.Prepared
			// The probe's queries are not statements of the workload;
			// they are numbered after them.
			if err := lr.timed("opt.order", -1, lr.rec.request(), len(lr.e.stmts)+i, rep, func() (err error) {
				prep, err = opt.Order(l)
				return err
			}); err != nil {
				return fmt.Errorf("%s: %w", l.Name, err)
			}
			if rep > 0 {
				continue
			}
			res, err := lr.e.db.Engine().RunPlanOpts(context.Background(), prep.Root, l.Name,
				exec.RunOpts{Replan: prep})
			if err != nil {
				return fmt.Errorf("opt probe %s: %w", l.Name, err)
			}
			lr.optReplans += res.Stats.Replans
			if e := res.Stats.EstCardErr; e > lr.estCardErr && !math.IsInf(e, 0) {
				lr.estCardErr = e
			}
		}
	}
	return nil
}
