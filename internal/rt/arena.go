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

// Arena is a per-worker bump allocator over memory segments. It is not
// safe for concurrent use — every worker owns its own arena, which is what
// makes tuple materialization in build pipelines synchronization-free
// (morsel-driven parallelism, §III-A).
type Arena struct {
	mem    *Memory
	cur    Addr
	off    int
	size   int
	chunks []Addr
	used   []int
}

// NewArena returns an empty arena allocating from mem.
func NewArena(mem *Memory) *Arena { return &Arena{mem: mem} }

// Alloc returns the address of n fresh zeroed bytes.
func (a *Arena) Alloc(n int) Addr {
	if a.off+n > a.size {
		size := max(chunkSize(len(a.chunks)), n)
		a.cur = a.mem.Alloc(size)
		a.size = size
		a.off = 0
		a.chunks = append(a.chunks, a.cur)
		a.used = append(a.used, 0)
	}
	addr := a.cur + Addr(a.off)
	a.off += n
	a.used[len(a.used)-1] = a.off
	return addr
}

// Bytes returns the total bytes allocated.
func (a *Arena) Bytes() int {
	total := 0
	for _, u := range a.used {
		total += u
	}
	return total
}

// Each calls fn with the address of every stride-sized record allocated in
// order. Records must all have been allocated with size == stride.
func (a *Arena) Each(stride int, fn func(addr Addr)) {
	for i, base := range a.chunks {
		for off := 0; off+stride <= a.used[i]; off += stride {
			fn(base + Addr(off))
		}
	}
}

// EachChunk calls fn once per chunk with the chunk's base address and its
// used bytes as a direct slice. Partitioned finalization uses it to scan
// tuples without going through the segment table on every load.
func (a *Arena) EachChunk(fn func(base Addr, data []byte)) {
	for i, base := range a.chunks {
		fn(base, a.mem.Seg(base)[:a.used[i]])
	}
}
