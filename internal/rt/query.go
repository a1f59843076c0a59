package rt

import (
	"bytes"
	"unsafe"
)

// QueryState is the per-query runtime state reachable from extern calls:
// the address space, the hash tables and output buffers of every pipeline,
// compiled LIKE patterns, and the shared/per-worker arenas whose layout
// the code generator defined.
//
// The shared state arena holds, per hash join, the published bucket base
// and mask; each worker-local block holds, per aggregation, the worker's
// bucket base, mask and (for scalar aggregation) singleton entry address,
// and per output buffer and join build the worker's bump window
// (WindowBytes). Generated code reads and writes these with plain loads
// and stores.
type QueryState struct {
	Mem     *Memory
	Workers int

	// StateAddr is the shared state arena; Locals are the per-worker
	// blocks, both sized by the code generator. The blocks sit in one
	// segment, each on cache lines of its own (localAlign).
	StateAddr Addr
	Locals    []Addr

	Joins    []*JoinHT
	Aggs     []*AggSet
	Outs     []*OutSet
	Patterns []*LikePattern
}

// localAlign is the stride granule and alignment of the worker-local
// blocks: two cache lines, so no two workers' blocks share a line (nor an
// adjacent-line prefetch pair). Every row a worker emits writes its
// window, and a line shared with another worker's window would bounce
// between their cores on every row.
const localAlign = 128

// NewQueryState allocates the shared state arena and the per-worker local
// blocks: one segment, a stride of localBytes rounded up to localAlign,
// the first block localAlign-aligned in host memory.
func NewQueryState(mem *Memory, workers, stateBytes, localBytes int) *QueryState {
	q := &QueryState{Mem: mem, Workers: workers}
	q.StateAddr = mem.Alloc(max(stateBytes, 8))
	stride := (max(localBytes, 8) + localAlign - 1) &^ (localAlign - 1)
	seg := make([]byte, workers*stride+localAlign)
	skip := -uintptr(unsafe.Pointer(&seg[0])) & (localAlign - 1)
	base := mem.AddSegment(seg) + Addr(skip)
	for i := 0; i < workers; i++ {
		q.Locals = append(q.Locals, base+Addr(i*stride))
	}
	return q
}

// arenasAt returns one arena per worker whose window is at winOff in that
// worker's local block.
func (q *QueryState) arenasAt(winOff int) []*Arena {
	arenas := make([]*Arena, q.Workers)
	for w, local := range q.Locals {
		arenas[w] = newArenaAt(q.Mem, local+Addr(winOff))
	}
	return arenas
}

// AddJoin registers a join hash table whose build tuples are bumped from
// the window at winOff in each worker's local block, and returns its id.
func (q *QueryState) AddJoin(tupleSize, stateOff, winOff int) int {
	q.Joins = append(q.Joins, newJoinHT(q.Mem, tupleSize, stateOff, q.arenasAt(winOff)))
	return len(q.Joins) - 1
}

// AddAgg registers an aggregation set and returns its id.
func (q *QueryState) AddAgg(entrySize int, keys []KeyField, aggs []AggField,
	localOff int, scalar bool) int {
	q.Aggs = append(q.Aggs,
		NewAggSet(q.Mem, q.Workers, entrySize, keys, aggs, localOff, scalar, q.Locals))
	return len(q.Aggs) - 1
}

// AddOut registers an output buffer set whose rows are bumped from the
// window at winOff in each worker's local block, and returns its id.
func (q *QueryState) AddOut(rowSize, winOff int) int {
	q.Outs = append(q.Outs, newOutSet(q.Mem, rowSize, q.arenasAt(winOff)))
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
	// ht_alloc and out_alloc are the slow path of the generated bump:
	// the worker's window is full, so start a new chunk.
	r.Register("ht_alloc", func(ctx *Ctx, args []uint64) uint64 {
		return state(ctx).Joins[args[0]].Refill(ctx.Worker)
	})
	r.Register("agg_insert", func(ctx *Ctx, args []uint64) uint64 {
		return state(ctx).Aggs[args[0]].Insert(ctx.Worker, args[1])
	})
	r.Register("out_alloc", func(ctx *Ctx, args []uint64) uint64 {
		return state(ctx).Outs[args[0]].Refill(ctx.Worker)
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
