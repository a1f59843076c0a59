package rt

// Arena chunks grow geometrically: chunk i holds firstChunkSize << i bytes
// up to maxChunkSize, so a query that materializes a handful of tuples
// allocates (and zeroes) a few KiB per worker, while a large build still
// reaches the full chunk size after six chunks. A chunk's size depends only
// on its index, which lets OutSet locate a record without reading the
// worker's arena state. Chunks are registered as memory segments so
// generated code can read and write tuples in them directly.
const (
	firstChunkSize = 1 << 12
	maxChunkSize   = 1 << 18
	growChunks     = 6 // chunks before the first maxChunkSize one
)

// chunkSize is the nominal size of an arena's chunk i; an allocation
// larger than it gets a chunk of exactly its own size instead.
func chunkSize(i int) int {
	if i >= growChunks {
		return maxChunkSize
	}
	return firstChunkSize << i
}

// WindowBytes is the size of an arena's bump window: [next u64][end u64],
// the addresses of the current chunk's first free byte and of its end.
// Allocating n bytes is: if next+n ≤ end (unsigned), store next+n and use
// next; otherwise refill. A window of zeros is empty, so the first
// allocation always refills.
const WindowBytes = 16

// Arena is a per-worker bump allocator over memory segments. It is not
// safe for concurrent use — every worker owns its own arena, which is what
// makes tuple materialization in build pipelines synchronization-free
// (morsel-driven parallelism, §III-A).
//
// The bump state is a window (WindowBytes). For the arenas generated code
// fills — a worker's output buffer and join-build arena — the window lives
// in that worker's local block at an offset the code generator assigned,
// and the generated sink bumps it inline: a record costs a few
// instructions, and only a full window calls out (out_alloc / ht_alloc →
// Refill). Alloc, the Go-side path, reads and writes the same window, so
// every tier that runs a pipeline's morsels appends to the same chunks.
// Other arenas (aggregation entries) keep the window inside the Arena
// value. Everything that reads the arena's extent (Bytes, Each,
// EachChunk, OutSet.Publish) reads the current chunk's from the window;
// they only read, so partitioned finalization may call them concurrently.
type Arena struct {
	mem *Memory
	win []byte // the window: into the worker's local block, or own
	own [WindowBytes]byte

	chunks []Addr
	// used is the bytes of each chunk that hold records, recorded when
	// the chunk is closed (the current chunk's is the window's); closed is
	// their sum.
	used   []int
	closed int
}

// NewArena returns an empty arena allocating from mem, its window private.
func NewArena(mem *Memory) *Arena {
	a := &Arena{mem: mem}
	a.win = a.own[:]
	return a
}

// newArenaAt returns an empty arena whose window is the WindowBytes at win
// in mem, where generated code bumps it.
func newArenaAt(mem *Memory, win Addr) *Arena {
	return &Arena{mem: mem, win: mem.Bytes(win, WindowBytes)}
}

// Alloc returns the address of n > 0 fresh zeroed bytes: the same bump
// generated code performs inline, and Refill when the window is full.
func (a *Arena) Alloc(n int) Addr {
	next := leU64(a.win)
	if p := next + uint64(n); p <= leU64(a.win[8:]) {
		putU64(a.win, p)
		return next
	}
	return a.Refill(n)
}

// Refill starts a new chunk that holds at least n bytes, points the window
// past its first n bytes and returns their address. It is the slow path of
// every allocation, generated or not.
func (a *Arena) Refill(n int) Addr {
	if last := len(a.chunks) - 1; last >= 0 {
		a.used[last] = a.extent(last)
		a.closed += a.used[last]
	}
	size := max(chunkSize(len(a.chunks)), n)
	base := a.mem.Alloc(size)
	a.chunks = append(a.chunks, base)
	a.used = append(a.used, 0)
	putU64(a.win, base+Addr(n))
	putU64(a.win[8:], base+Addr(size))
	return base
}

// extent returns the bytes of chunk i that hold records.
func (a *Arena) extent(i int) int {
	if i == len(a.chunks)-1 {
		return int(leU64(a.win) - a.chunks[i])
	}
	return a.used[i]
}

// Bytes returns the total bytes allocated.
func (a *Arena) Bytes() int {
	if len(a.chunks) == 0 {
		return 0
	}
	return a.closed + a.extent(len(a.chunks)-1)
}

// Each calls fn with the address of every stride-sized record allocated in
// order. Records must all have been allocated with size == stride.
func (a *Arena) Each(stride int, fn func(addr Addr)) {
	for i, base := range a.chunks {
		for off := 0; off+stride <= a.extent(i); off += stride {
			fn(base + Addr(off))
		}
	}
}

// EachChunk calls fn once per chunk with the chunk's base address and its
// used bytes as a direct slice. Partitioned finalization uses it to scan
// tuples without going through the segment table on every load.
func (a *Arena) EachChunk(fn func(base Addr, data []byte)) {
	for i, base := range a.chunks {
		fn(base, a.mem.Seg(base)[:a.extent(i)])
	}
}
