// Package aqe is an adaptive compiling query engine: a from-scratch Go
// reproduction of "Adaptive Execution of Compiled Queries" (Kohn, Leis,
// Neumann — ICDE 2018), the HyPer adaptive execution paper.
//
// Queries are code-generated into a typed SSA IR (the LLVM IR stand-in),
// translated in linear time into register-machine bytecode, and executed
// morsel-wise across workers. The engine monitors per-pipeline progress
// and — in the default adaptive mode — switches hot pipelines mid-flight
// from bytecode to native machine code (amd64), exactly following the
// paper's Fig. 5/7 machinery: low latency for small inputs, full
// throughput for large ones, without up-front cost decisions. A
// pipeline whose level cannot run stays where it is; the paper's
// unoptimized and optimized compiled tiers are the static baselines
// ModeNative and ModeOptimized, machine code from the same back end, and
// optimized code is never chosen adaptively.
//
// Quick start:
//
//	db := aqe.Open(aqe.Options{})
//	db.LoadTPCH(0.01)
//	res, err := db.ExecSQL(`SELECT l_returnflag, count(*), sum(l_extendedprice)
//	                        FROM lineitem GROUP BY l_returnflag`)
//
// Plans can also be built directly with the plan DSL (see internal/tpch
// for all 22 TPC-H queries) and run with Exec.
package aqe

import (
	"context"
	"fmt"

	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/sql"
	"aqe/internal/storage"
	"aqe/internal/tpch"
)

// Mode selects the execution mode.
type Mode = exec.Mode

// Execution modes. ModeAdaptive (the default) decides per pipeline: with
// real compile latencies (NativeCosts) and a native back end, a pipeline
// longer than one morsel is assembled to machine code as it starts; every
// other pipeline — and every pipeline under PaperCosts — starts in the
// bytecode interpreter and is compiled in the background when the
// extrapolated remaining work justifies it. The other modes fix the tier
// up front (the paper's static baselines).
const (
	ModeBytecode = exec.ModeBytecode
	// ModeOptimized runs the IR pass pipeline on every pipeline, then
	// assembles it like ModeNative — the paper's optimized baseline, and
	// the only mode that runs optimized code.
	ModeOptimized = exec.ModeOptimized
	ModeAdaptive  = exec.ModeAdaptive
	// ModeNative pre-assembles every pipeline to machine code via the
	// copy-and-patch template JIT — the paper's unoptimized baseline; a
	// pipeline stays in bytecode on platforms without a backend or where
	// assembly fails, and so does one under ModeOptimized.
	ModeNative = exec.ModeNative
)

// ParseMode returns the mode a name such as "adaptive" or "native" (what
// Mode.String prints) stands for, or an error that lists the valid names.
func ParseMode(name string) (Mode, error) { return exec.ParseMode(name) }

// CostModel predicts compile times for the adaptive controller; see
// PaperCosts and NativeCosts.
type CostModel = exec.CostModel

// PaperCosts returns the compile-cost model calibrated to the paper's
// LLVM measurements; the modeled latency is imposed on compilations
// (DESIGN.md documents this substitution).
func PaperCosts() *CostModel { return exec.Paper() }

// NativeCosts returns the measured model of the in-process native back
// end, the level the adaptive controller climbs to from bytecode, with no
// simulated latency.
func NativeCosts() *CostModel { return exec.Native() }

// Options configures a DB: how queries run (mode, cost model, workers,
// trace), what is cached, and how concurrent queries share the engine.
// Parallel breaker finalization, Bloom-filtered probes, zone-map pruning
// and string dictionaries are not settings: they are always on, and no
// off switch exists. The differential tests compare every mode against
// the Volcano interpreter instead.
type Options struct {
	// Workers is the number of worker threads (default 4).
	Workers int
	// Mode is the execution mode (default ModeAdaptive).
	Mode Mode
	// Cost is the compile-cost model (default NativeCosts()).
	Cost *CostModel
	// Trace records per-morsel execution traces on every result; a
	// multi-stage query's Result.Trace holds all its stages on one axis.
	Trace bool
	// CacheBytes is the byte budget of the plan-fingerprint compilation
	// cache that lets repeated queries skip translation and start in the
	// best previously compiled tier. 0 selects the default (64 MiB);
	// negative disables caching.
	CacheBytes int64
	// MaxConcurrent caps the number of queries executing at once; excess
	// arrivals wait in a FIFO admission queue (Stats.Queued/WaitTime).
	// Default 8.
	MaxConcurrent int
	// MaxConcurrentPerTenant additionally caps concurrent queries per
	// tenant (0 = unlimited): a tenant at its quota queues even while
	// global capacity is free, and never holds up other tenants.
	MaxConcurrentPerTenant int
	// TenantWeights sets fair-share weights for the worker pool (default
	// 1 per tenant): under contention a tenant's morsels are granted
	// workers in proportion to its weight.
	TenantWeights map[string]int
	// PoolWorkers sizes the shared worker pool all in-flight queries
	// draw from (default GOMAXPROCS).
	PoolWorkers int
	// MorselCap bounds geometric morsel growth (default 65536 tuples).
	// A morsel is the unit of preemption: under concurrent load no query
	// waits for the pool longer than one in-flight morsel, so a service
	// tuned for tail latency lowers the cap to trade a little dispatch
	// amortization for a tighter worst-case wait.
	MorselCap int64
}

// Query re-exports the multi-stage plan query type used by Exec.
type Query = plan.Query

// Result is a materialized query result (see exec.Result).
type Result = exec.Result

// Stats describes an executed query.
type Stats = exec.Stats

// DB is a database handle: a table catalog plus an execution engine.
type DB struct {
	cat *storage.Catalog
	eng *exec.Engine
}

// Open creates a database.
func Open(opts Options) *DB {
	cacheBytes := opts.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	} else if cacheBytes < 0 {
		cacheBytes = 0
	}
	eopts := exec.Options{Workers: opts.Workers, Mode: opts.Mode,
		Cost: opts.Cost, Trace: opts.Trace, CacheBytes: cacheBytes,
		MaxConcurrent:          opts.MaxConcurrent,
		MaxConcurrentPerTenant: opts.MaxConcurrentPerTenant,
		TenantWeights:          opts.TenantWeights,
		PoolWorkers:            opts.PoolWorkers,
		MorselCap:              opts.MorselCap}
	if eopts.Cost == nil {
		eopts.Cost = exec.Native()
	}
	return &DB{cat: storage.NewCatalog(), eng: exec.New(eopts)}
}

// Register adds a table to the catalog.
func (db *DB) Register(t *storage.Table) { db.cat.Add(t) }

// Catalog exposes the table catalog.
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// Engine exposes the underlying execution engine.
func (db *DB) Engine() *exec.Engine { return db.eng }

// LoadTPCH generates and registers the TPC-H tables at the given scale
// factor (SF 0.01 ≈ 10 MB, SF 1 ≈ 1 GB).
func (db *DB) LoadTPCH(sf float64) {
	cat := tpch.Gen(sf)
	for _, name := range cat.Names() {
		db.cat.Add(cat.Table(name))
	}
}

// TPCHQuery returns TPC-H query n (1-22) as a plan against this catalog.
func (db *DB) TPCHQuery(n int) plan.Query { return tpch.Query(db.cat, n) }

// Exec runs a (possibly multi-stage) plan query.
func (db *DB) Exec(q plan.Query) (*Result, error) { return db.eng.Run(q) }

// ExecCtx runs a plan query under a context: a cancelled or expired
// context stops the query at the next morsel boundary and returns an
// error wrapping the cause, with Stats.Cancelled set on the result.
func (db *DB) ExecCtx(ctx context.Context, q plan.Query) (*Result, error) {
	return db.eng.RunCtx(ctx, q)
}

// ExecPlan runs a single plan.
func (db *DB) ExecPlan(node plan.Node, name string) (*Result, error) {
	return db.eng.RunPlan(node, name)
}

// ExecPlanCtx runs a single plan under a context (see ExecCtx).
func (db *DB) ExecPlanCtx(ctx context.Context, node plan.Node, name string) (*Result, error) {
	return db.eng.RunPlanCtx(ctx, node, name)
}

// ExecSQL parses, plans and runs a SQL query (the supported subset covers
// single- and multi-table SELECT with WHERE, GROUP BY, ORDER BY, LIMIT).
func (db *DB) ExecSQL(query string) (*Result, error) {
	return db.ExecSQLCtx(context.Background(), query)
}

// ExecSQLCtx is ExecSQL under a context (see ExecCtx).
func (db *DB) ExecSQLCtx(ctx context.Context, query string) (*Result, error) {
	node, err := sql.Plan(query, db.cat)
	if err != nil {
		return nil, err
	}
	return db.eng.RunPlanCtx(ctx, node, "sql")
}

// FormatRows renders result rows for display.
func FormatRows(res *Result, max int) string {
	out := ""
	for i, c := range res.Cols {
		if i > 0 {
			out += " | "
		}
		out += c
	}
	out += "\n"
	for i, row := range res.Rows {
		if max >= 0 && i >= max {
			out += fmt.Sprintf("... (%d more rows)\n", len(res.Rows)-max)
			break
		}
		for j, d := range row {
			if j > 0 {
				out += " | "
			}
			out += exec.Format(d, res.Types[j])
		}
		out += "\n"
	}
	return out
}

// Datum re-exports the scalar result value type.
type Datum = expr.Datum
