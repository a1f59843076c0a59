package exec

import (
	"time"

	"aqe/internal/codegen"
	"aqe/internal/plan"
)

// Replanner is the feedback interface of mid-query reoptimization,
// implemented by plan producers (internal/opt). The engine reports every
// observed build-side cardinality at a pipeline-breaker finalize through
// Observe; when the observation diverges from the plan's estimate past
// the misestimate threshold, the engine asks for a revised plan through
// Replan and — if the join order changed — restarts execution on it.
//
// The interface lives here (not in internal/opt) so exec never depends on
// the optimizer: hand-built plans run with a nil Replanner and behave
// exactly as before.
type Replanner interface {
	// Observe records the true cardinality of one join's build side.
	Observe(j *plan.Join, observed int64)
	// Replan returns a revised plan under the observations so far, or
	// (nil, false) when the corrected estimates confirm the current plan.
	Replan() (plan.Node, bool)
}

// Replan-protocol defaults (see Options.ReplanThreshold / MaxReplans).
const (
	DefaultReplanThreshold = 8.0
	DefaultMaxReplans      = 2
)

// reoptState is the per-query replan budget, shared across restart
// attempts of one RunPlanOpts call.
type reoptState struct {
	rp        Replanner
	threshold float64
	remaining int
}

// replanSignal is the error that stops a query when the orderer splices
// in a new plan; RunPlanOpts restarts on node when execute returns it.
type replanSignal struct{ node plan.Node }

func (r *replanSignal) Error() string { return "exec: mid-query replan requested" }

// cardErr is the symmetric misestimate factor max(est/obs, obs/est),
// floored at 1 (an exact estimate has error 1).
func cardErr(est, obs int64) float64 {
	e, o := float64(est), float64(obs)
	if e < 1 {
		e = 1
	}
	if o < 1 {
		o = 1
	}
	if e > o {
		return e / o
	}
	return o / e
}

// observeBuild runs after a join hash table finalizes: it compares the
// observed build cardinality against the plan's estimate, feeds the
// observation to the Replanner, and — past the threshold, within the
// replan budget — returns the signal that discards the current execution
// and restarts it on the revised plan. The left-deep plans the optimizer
// emits make the observation exact: every build side is a single filtered
// base relation.
//
// Replan protocol (DESIGN.md): state *discarded* at the breaker is every
// hash table built so far (the new order needs different build sides, and
// rebuilding from base tables is what keeps every tier's semantics
// identical); state *kept* is the set of observed true cardinalities,
// which re-enter the orderer as exact overrides, plus all admission and
// statistics context of the query.
func (qr *queryRun) observeBuild(pl *codegen.Pipeline, observed int64) error {
	j := pl.BuildOf
	if j == nil || j.Est <= 0 || qr.cancelled.Load() {
		return nil
	}
	ratio := cardErr(j.Est, observed)
	if ratio > qr.stats.EstCardErr {
		qr.stats.EstCardErr = ratio
	}
	ro := qr.reopt
	if ro == nil {
		return nil
	}
	ro.rp.Observe(j, observed)
	if ratio < ro.threshold || ro.remaining <= 0 {
		return nil
	}
	newRoot, changed := ro.rp.Replan()
	if !changed {
		return nil
	}
	// A restart discards the attempt's output, which is only sound while
	// none of it has left the engine. Replans fire at join-build breakers
	// and rows come out of the final pipeline, which has an output sink and
	// no breaker — so this cannot happen, and must not start to.
	if qr.result.n > 0 {
		panic("exec: replan requested after result rows were emitted")
	}
	ro.remaining--
	if qr.trace != nil {
		now := qr.trace.Since(time.Now())
		qr.trace.Add(Event{Kind: EvReplan, Pipeline: pl.ID, Label: pl.Label,
			Worker: -1, Start: now, End: now, Tuples: observed})
	}
	return &replanSignal{node: newRoot}
}
