package rt

// JoinHT is the chaining hash table used by hash joins, built in the two
// phases of morsel-driven joins: the build pipeline materializes tuples
// (layout: [hash u64] [next u64] [payload...]) into per-worker arenas
// through generated code, which bumps each tuple from the worker's window
// (Arena) and calls ht_alloc only when a chunk is full; then Finalize
// sizes the bucket array, links the chains and sets the Bloom filter
// between pipelines. Probing happens
// entirely in generated code: it tests the filter word, reads the bucket
// head and walks the chain with plain loads, exactly like HyPer's
// generated probe code.
//
// Finalize partitions the bucket array by hash range and runs one task per
// partition: each task scans all arenas but links only tuples whose bucket
// index falls inside its range, so all writes (bucket heads, chain links,
// filter words) are disjoint across partitions — no atomics, and the final
// chains are byte-identical for every partition count because every
// bucket sees its tuples in the same arena order. One partition is one
// walk over every arena.
type JoinHT struct {
	mem       *Memory
	TupleSize int
	// StateOff is the offset in the shared state arena where finalization
	// publishes [bucketsAddr u64][mask u64][filterAddr u64] for the probe
	// code to load (JoinStateBytes).
	StateOff int

	arenas []*Arena

	// Results of finalization. FilterAddr is the per-join Bloom filter:
	// one 16-bit tag word per bucket, tag bit selected by hash bits 48..51.
	// Probe code tests the word before touching the bucket array, skipping
	// the chain walk (and its cache misses) for keys that cannot be present.
	BucketsAddr Addr
	FilterAddr  Addr
	Mask        uint64
	Count       int

	buckets []byte
	filter  []byte

	// Marks is the match-count state of a build-side join (nil for every
	// other kind); locals are the worker-local arenas its count arrays are
	// published in.
	Marks  *Marks
	locals []Addr
}

// JoinStateBytes is the per-join slot size in the shared state arena:
// [bucketsAddr u64][mask u64][filterAddr u64].
const JoinStateBytes = 24

// minParallelBreaker is the tuple (or group) count below which partitioned
// finalization collapses to one partition: spawning goroutines costs more
// than linking a few thousand tuples.
const minParallelBreaker = 4096

// ParallelFor runs fn(0), ..., fn(n-1), possibly concurrently. The engine
// supplies it so the runtime stays free of scheduling policy; partitioned
// finalization guarantees the fn invocations touch disjoint memory.
type ParallelFor func(n int, fn func(p int))

// NewJoinHT creates a join hash table with one arena per worker, each with
// a private window: tuples come only from Alloc.
func NewJoinHT(mem *Memory, workers, tupleSize, stateOff int) *JoinHT {
	arenas := make([]*Arena, workers)
	for i := range arenas {
		arenas[i] = NewArena(mem)
	}
	return newJoinHT(mem, tupleSize, stateOff, arenas)
}

func newJoinHT(mem *Memory, tupleSize, stateOff int, arenas []*Arena) *JoinHT {
	return &JoinHT{mem: mem, TupleSize: tupleSize, StateOff: stateOff, arenas: arenas}
}

// Alloc returns space for one build tuple on worker w's arena. Generated
// code bumps the same arena's window inline and stores the hash at offset
// 0 and the payload from offset 16; offset 8 (the chain link) is filled by
// finalization.
func (h *JoinHT) Alloc(w int) Addr {
	return h.arenas[w].Alloc(h.TupleSize)
}

// Refill returns the first tuple of a fresh chunk on worker w's arena
// (ht_alloc: generated code found its window full).
func (h *JoinHT) Refill(w int) Addr {
	return h.arenas[w].Refill(h.TupleSize)
}

// prepare counts the materialized tuples and sizes the bucket array (and
// filter) to the next power of two ≥ 2× the tuple count, keeping the load
// factor at or below 0.5. An empty build side maps both arrays onto the
// memory's shared zero segment instead of allocating a useless one-bucket
// table. Returns the number of buckets (0 when empty).
func (h *JoinHT) prepare() int {
	total := 0
	for _, a := range h.arenas {
		total += a.Bytes() / h.TupleSize
	}
	h.Count = total
	if total == 0 {
		z := h.mem.ZeroSeg()
		h.BucketsAddr, h.Mask, h.FilterAddr = z, 0, z
		h.buckets, h.filter = nil, nil
		return 0
	}
	nb := nextPow2(2 * total)
	h.buckets = make([]byte, nb*8)
	h.BucketsAddr = h.mem.AddSegment(h.buckets)
	h.Mask = uint64(nb - 1)
	h.filter = make([]byte, nb*2)
	h.FilterAddr = h.mem.AddSegment(h.filter)
	return nb
}

// linkRange links every tuple whose bucket index falls in [lo, hi) and
// sets its filter tag. Arenas are visited in worker order and chunk-wise
// with direct slice access, so the per-tuple cost of scanning foreign
// partitions' tuples is one hash load and a compare.
func (h *JoinHT) linkRange(lo, hi uint64) {
	ts := h.TupleSize
	for _, a := range h.arenas {
		a.EachChunk(func(base Addr, data []byte) {
			for off := 0; off+ts <= len(data); off += ts {
				hash := leU64(data[off:])
				idx := hash & h.Mask
				if idx < lo || idx >= hi {
					continue
				}
				bi := idx * 8
				putU64(data[off+8:], leU64(h.buckets[bi:]))
				putU64(h.buckets[bi:], base+Addr(off))
				fi := idx * 2
				tag := uint16(1) << ((hash >> 48) & 15)
				putU16(h.filter[fi:], leU16(h.filter[fi:])|tag)
			}
		})
	}
}

// publishState stores the bucket base, mask and filter base into the state
// arena at StateOff for the generated probe code.
func (h *JoinHT) publishState(stateAddr Addr) {
	h.mem.Store64(stateAddr+Addr(h.StateOff), h.BucketsAddr)
	h.mem.Store64(stateAddr+Addr(h.StateOff)+8, h.Mask)
	h.mem.Store64(stateAddr+Addr(h.StateOff)+16, h.FilterAddr)
}

// Finalize builds the table with up to parts hash-range partitions
// scheduled through pfor, publishes it, and returns the partition count
// it actually used (1 when the table is too small to benefit). A
// build-side join's tuples are also numbered for its probe (Marks).
func (h *JoinHT) Finalize(stateAddr Addr, parts int, pfor ParallelFor) int {
	nb := h.prepare()
	if h.Marks != nil {
		defer h.number()
	}
	if nb == 0 {
		h.publishState(stateAddr)
		return 1
	}
	if parts > nb {
		parts = nb
	}
	if parts < 1 || h.Count < minParallelBreaker {
		parts = 1
	}
	pfor(parts, func(p int) {
		lo := uint64(p) * uint64(nb) / uint64(parts)
		hi := uint64(p+1) * uint64(nb) / uint64(parts)
		h.linkRange(lo, hi)
	})
	h.publishState(stateAddr)
	return parts
}

// Tuples calls fn for every build tuple (used by tests and diagnostics).
func (h *JoinHT) Tuples(fn func(addr Addr)) {
	for _, a := range h.arenas {
		a.Each(h.TupleSize, fn)
	}
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	nb := 1
	for nb < n {
		nb <<= 1
	}
	return nb
}
