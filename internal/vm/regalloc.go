package vm

import (
	"aqe/internal/ir"
	"aqe/internal/ir/analysis"
)

// Strategy selects the register allocation policy (§IV-C compares three).
type Strategy int

// Allocation strategies.
const (
	// LoopAware is the paper's allocator: live ranges from the linear-time
	// loop-aware liveness analysis, registers reused as soon as a range
	// ends.
	LoopAware Strategy = iota
	// NoReuse assigns every value its own slot ("36 KB" in §IV-C).
	NoReuse
	// Window reuses registers only for ranges spanning at most Options.
	// Window blocks; longer-lived values are kept to the end of the
	// function, modeling JIT allocators that only consider a fixed window
	// of neighboring basic blocks ("21 KB" in §IV-C).
	Window
)

// Options configures translation.
type Options struct {
	Strategy Strategy
	// WindowSize is the block window for the Window strategy (default 16).
	WindowSize int
	// NoFusion disables macro-op fusion (§IV-F) for ablation runs.
	NoFusion bool
}

// allocation is the result of register assignment for one function.
type allocation struct {
	slot      []int32 // value ID -> slot; -1 = no slot
	numSlots  int     // high-water mark, excluding the scratch slot
	scratch   int32   // slot reserved for parallel-copy cycle breaking
	constPool []uint64
	paramBase int
}

// slotsOf is the number of register slots value v occupies.
func slotsOf(v *ir.Value) int {
	if v.Type == ir.Pair {
		return 2
	}
	return 1
}

func (a *allocation) of(v *ir.Value) int32 {
	s := a.slot[v.ID]
	if s < 0 {
		panic("vm: value has no register slot")
	}
	return s
}

// allocate assigns register-file slots. Layout: [0,1] = constants 0 and 1,
// then the remaining constant pool, then parameters, then temporaries
// allocated on demand in reverse-postorder with a LIFO free list — freed
// slots are reused immediately so the hot part of the register file stays
// small and L1-resident (§IV-C).
func allocate(f *ir.Function, lv *analysis.Liveness, hasSlot []bool, opts Options) *allocation {
	a := &allocation{slot: make([]int32, f.NumValues())}
	for i := range a.slot {
		a.slot[i] = -1
	}

	// Constant pool: slots 0/1 pinned to 0/1, further constants deduped
	// by bit pattern.
	a.constPool = []uint64{0, 1}
	poolIdx := map[uint64]int32{0: 0, 1: 1}
	for _, c := range f.Constants() {
		s, ok := poolIdx[c.Const]
		if !ok {
			s = int32(len(a.constPool))
			a.constPool = append(a.constPool, c.Const)
			poolIdx[c.Const] = s
		}
		a.slot[c.ID] = s
	}
	a.paramBase = len(a.constPool)
	for i, p := range f.Params {
		a.slot[p.ID] = int32(a.paramBase + i)
	}
	next := a.paramBase + len(f.Params)
	a.numSlots = next

	nBlocks := len(lv.Order())
	ranges := make([]analysis.Interval, len(lv.Ranges))
	copy(ranges, lv.Ranges)

	// Normalize ranges per strategy.
	for _, b := range lv.Order() {
		n := lv.Pos(b)
		for _, in := range b.Instrs {
			if in.Type == ir.Void || !hasSlot[in.ID] {
				continue
			}
			r := &ranges[in.ID]
			if r.Empty() {
				// Dead value that is still emitted (e.g. an unused call
				// result): live only in its defining block.
				*r = analysis.Interval{Start: n, End: n}
			}
			switch opts.Strategy {
			case NoReuse:
				r.End = nBlocks - 1
			case Window:
				w := opts.WindowSize
				if w <= 0 {
					w = 16
				}
				if r.End-r.Start > w {
					r.End = nBlocks - 1
				}
			}
		}
	}

	// The values whose ranges start at each position, and the slots freed
	// at each position.
	startAt, endAt := newBuckets[*ir.Value](nBlocks), newBuckets[int32](nBlocks)
	for _, b := range lv.Order() {
		for _, in := range b.Instrs {
			if in.Type != ir.Void && hasSlot[in.ID] {
				startAt.count(ranges[in.ID].Start, 1)
				endAt.count(ranges[in.ID].End, slotsOf(in))
			}
		}
	}
	startAt.layout()
	endAt.layout()
	for _, b := range lv.Order() {
		for _, in := range b.Instrs {
			if in.Type != ir.Void && hasSlot[in.ID] {
				startAt.put(ranges[in.ID].Start, in)
			}
		}
	}

	var free []int32
	alloc1 := func() int32 {
		if opts.Strategy != NoReuse && len(free) > 0 {
			s := free[len(free)-1]
			free = free[:len(free)-1]
			return s
		}
		s := int32(next)
		next++
		if next > a.numSlots {
			a.numSlots = next
		}
		return s
	}
	for n := 0; n < nBlocks; n++ {
		for _, v := range startAt.at(n) {
			if v.Type == ir.Pair {
				// Pair values need two consecutive slots (value, flag);
				// allocate fresh at the top to keep the fast path simple —
				// unfused pairs are rare since codegen emits the fusable
				// pattern.
				s := int32(next)
				next += 2
				if next > a.numSlots {
					a.numSlots = next
				}
				a.slot[v.ID] = s
				endAt.put(ranges[v.ID].End, s)
				endAt.put(ranges[v.ID].End, s+1)
				continue
			}
			s := alloc1()
			a.slot[v.ID] = s
			endAt.put(ranges[v.ID].End, s)
		}
		// Every range ending at n started at or before n, so n's list of
		// freed slots is complete.
		free = append(free, endAt.at(n)...)
	}
	a.scratch = int32(a.numSlots)
	a.numSlots++
	return a
}

// buckets holds one list per layout position, all in one array. Counting
// every entry first sizes the lists; put then fills position p's list
// through a cursor, and once all of p's entries are in, at(p) returns it.
type buckets[T any] struct {
	off   []int // list p is items[off[p]:off[p+1]]; off[p+1] is its cursor while it fills
	items []T
}

func newBuckets[T any](positions int) buckets[T] {
	return buckets[T]{off: make([]int, positions+2)}
}

// count reserves k entries at position p; call layout after the last.
func (b *buckets[T]) count(p, k int) { b.off[p+2] += k }

func (b *buckets[T]) layout() {
	for i := 2; i < len(b.off); i++ {
		b.off[i] += b.off[i-1]
	}
	b.items = make([]T, b.off[len(b.off)-1])
}

func (b *buckets[T]) put(p int, x T) {
	b.items[b.off[p+1]] = x
	b.off[p+1]++
}

func (b *buckets[T]) at(p int) []T { return b.items[b.off[p]:b.off[p+1]] }
