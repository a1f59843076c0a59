package rt

import "bytes"

// QueryState is the per-query runtime state reachable from extern calls:
// the address space, the hash tables and output buffers of every pipeline,
// compiled LIKE patterns, and the shared/per-worker arenas whose layout
// the code generator defined.
//
// The shared state arena holds, per hash join, the published bucket base
// and mask; each worker-local arena holds, per aggregation, the worker's
// bucket base, mask and (for scalar aggregation) singleton entry address.
// Generated code reads these with plain loads.
type QueryState struct {
	Mem     *Memory
	Workers int

	// StateAddr is the shared state arena; Locals are the per-worker
	// arenas, both sized by the code generator.
	StateAddr Addr
	Locals    []Addr

	Joins    []*JoinHT
	Aggs     []*AggSet
	Outs     []*OutSet
	Patterns []*LikePattern

	// Eng lets the engine hang scheduler state off the query state so
	// engine-level externs (pipeline scheduling) can reach it.
	Eng any
}

// NewQueryState allocates the shared and per-worker arenas.
func NewQueryState(mem *Memory, workers, stateBytes, localBytes int) *QueryState {
	q := &QueryState{Mem: mem, Workers: workers}
	if stateBytes < 8 {
		stateBytes = 8
	}
	if localBytes < 8 {
		localBytes = 8
	}
	q.StateAddr = mem.Alloc(stateBytes)
	for i := 0; i < workers; i++ {
		q.Locals = append(q.Locals, mem.Alloc(localBytes))
	}
	return q
}

// AddJoin registers a join hash table and returns its id.
func (q *QueryState) AddJoin(tupleSize, stateOff int) int {
	q.Joins = append(q.Joins, NewJoinHT(q.Mem, q.Workers, tupleSize, stateOff))
	return len(q.Joins) - 1
}

// AddAgg registers an aggregation set and returns its id.
func (q *QueryState) AddAgg(entrySize int, keys []KeyField, aggs []AggField,
	localOff int, scalar bool) int {
	q.Aggs = append(q.Aggs,
		NewAggSet(q.Mem, q.Workers, entrySize, keys, aggs, localOff, scalar, q.Locals))
	return len(q.Aggs) - 1
}

// AddOut registers an output buffer set and returns its id.
func (q *QueryState) AddOut(rowSize int) int {
	q.Outs = append(q.Outs, NewOutSet(q.Mem, q.Workers, rowSize))
	return len(q.Outs) - 1
}

// AddPattern compiles and registers a LIKE pattern, returning its id.
func (q *QueryState) AddPattern(pattern string) int {
	q.Patterns = append(q.Patterns, CompileLike(pattern))
	return len(q.Patterns) - 1
}

// state returns the QueryState of a context.
func state(ctx *Ctx) *QueryState { return ctx.Query.(*QueryState) }

// RegisterBuiltins installs the runtime externs every generated query may
// call. Engine-level externs (pipeline scheduling, finalization) are
// registered separately by the engine.
func RegisterBuiltins(r *Registry) {
	r.Register("ht_alloc", func(ctx *Ctx, args []uint64) uint64 {
		return state(ctx).Joins[args[0]].Alloc(ctx.Worker)
	})
	r.Register("agg_insert", func(ctx *Ctx, args []uint64) uint64 {
		return state(ctx).Aggs[args[0]].Insert(ctx.Worker, args[1])
	})
	r.Register("out_alloc", func(ctx *Ctx, args []uint64) uint64 {
		return state(ctx).Outs[args[0]].Alloc(ctx.Worker)
	})
	r.Register("str_eq", func(ctx *Ctx, args []uint64) uint64 {
		if args[1] != args[3] {
			return 0
		}
		a := ctx.Mem.Bytes(args[0], int(args[1]))
		b := ctx.Mem.Bytes(args[2], int(args[3]))
		if string(a) == string(b) {
			return 1
		}
		return 0
	})
	r.Register("str_cmp", func(ctx *Ctx, args []uint64) uint64 {
		a := ctx.Mem.Bytes(args[0], int(args[1]))
		b := ctx.Mem.Bytes(args[2], int(args[3]))
		return uint64(int64(bytes.Compare(a, b)))
	})
	r.Register("str_like", func(ctx *Ctx, args []uint64) uint64 {
		p := state(ctx).Patterns[args[0]]
		s := ctx.Mem.Bytes(args[1], int(args[2]))
		if p.Match(s) {
			return 1
		}
		return 0
	})
	r.Register("str_hash", func(ctx *Ctx, args []uint64) uint64 {
		return StrHash(ctx.Mem.Bytes(args[0], int(args[1])))
	})
	r.Register("date_year", func(ctx *Ctx, args []uint64) uint64 {
		return uint64(YearOfDays(int64(args[0])))
	})
	r.Register("trap_overflow", func(ctx *Ctx, args []uint64) uint64 {
		Throw(TrapOverflow)
		return 0
	})
	r.Register("trap_divzero", func(ctx *Ctx, args []uint64) uint64 {
		Throw(TrapDivZero)
		return 0
	})
}

// YearOfDays converts days-since-1970 to a calendar year using the civil
// calendar algorithm (no time package in the per-tuple path).
func YearOfDays(days int64) int64 {
	// Shift to days since 0000-03-01 (the civil-from-days algorithm of
	// Howard Hinnant, used widely for exactly this conversion).
	z := days + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	if mp >= 10 {
		return y + 1
	}
	return y
}
