package rt

import "sync/atomic"

// OutSet is the per-pipeline set of per-worker output buffers. The final
// pipeline of a query materializes result rows into them: each row is a
// fixed-width record bump-allocated from the worker's arena — inline in
// generated code, from the window in the worker's local block, with
// out_alloc (Refill) called only when a chunk is full — and those records
// are the query result: readers (exec.RowSet) consume them in place. Row
// order across workers is unspecified, matching SQL semantics for queries
// without ORDER BY.
//
// A worker makes its finished records visible by publishing a watermark
// at a morsel boundary (Publish); a reader on another goroutine sees, per
// worker, exactly the records below the last watermark (Spans). Records a
// running morsel is still filling are never exposed, so the reader can run
// while the pipeline does. Workers never wait for the reader.
type OutSet struct {
	mem     *Memory
	RowSize int
	bufs    []*outBuf
	ready   chan struct{} // capacity 1: some watermark moved since the last receive
}

// outBuf is one worker's arena and its published watermark. The arena
// belongs to the worker; pubChunks and pubRows are the reader's view,
// written only by Publish.
type outBuf struct {
	arena *Arena

	// pubChunks is a prefix of arena.chunks sharing its backing array: the
	// arena only ever appends, so the published elements are immutable.
	// It is stored before pubRows and loaded after it, so a reader that
	// sees n rows also sees every chunk those rows live in.
	pubChunks atomic.Pointer[[]Addr]
	pubRows   atomic.Int64
}

// NewOutSet creates an output set with one buffer per worker, each with a
// private window: rows come only from Alloc.
func NewOutSet(mem *Memory, workers, rowSize int) *OutSet {
	arenas := make([]*Arena, workers)
	for i := range arenas {
		arenas[i] = NewArena(mem)
	}
	return newOutSet(mem, rowSize, arenas)
}

func newOutSet(mem *Memory, rowSize int, arenas []*Arena) *OutSet {
	s := &OutSet{mem: mem, RowSize: rowSize, ready: make(chan struct{}, 1)}
	for _, a := range arenas {
		s.bufs = append(s.bufs, &outBuf{arena: a})
	}
	return s
}

// Alloc returns the address of a fresh row for worker w.
func (s *OutSet) Alloc(w int) Addr { return s.bufs[w].arena.Alloc(s.RowSize) }

// Refill returns the first row of a fresh chunk for worker w (out_alloc:
// generated code found its window full).
func (s *OutSet) Refill(w int) Addr { return s.bufs[w].arena.Refill(s.RowSize) }

// Publish makes every row worker w has allocated so far — through its
// window or Alloc — visible to readers: the count comes from the window. The engine calls it on the
// worker's goroutine after a morsel retires — never mid-morsel, when the
// newest row may be half written.
func (s *OutSet) Publish(w int) {
	b := s.bufs[w]
	rows := int64(b.arena.Bytes() / s.RowSize)
	if rows == b.pubRows.Load() {
		return
	}
	if p := b.pubChunks.Load(); p == nil || len(*p) != len(b.arena.chunks) {
		chunks := b.arena.chunks[:len(b.arena.chunks):len(b.arena.chunks)]
		b.pubChunks.Store(&chunks)
	}
	b.pubRows.Store(rows)
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Ready signals that a watermark moved since the channel was last
// received from. One pending signal covers any number of Publish calls.
func (s *OutSet) Ready() <-chan struct{} { return s.ready }

// Spans calls fn with every run of contiguous published records of worker
// w from record index from on — each run is n*RowSize bytes inside one
// arena chunk — and returns the index the next call should start from.
func (s *OutSet) Spans(w, from int, fn func(recs []byte)) int {
	b := s.bufs[w]
	rows := int(b.pubRows.Load())
	if from >= rows {
		return from
	}
	chunks := *b.pubChunks.Load()
	for from < rows {
		ci, off := s.locate(from)
		n := min(s.perChunk(ci)-off, rows-from)
		fn(s.mem.Bytes(chunks[ci]+Addr(off*s.RowSize), n*s.RowSize))
		from += n
	}
	return from
}

// perChunk is the number of records arena chunk i holds: as many as fit
// its index-determined size, or exactly one when a record is larger.
func (s *OutSet) perChunk(i int) int { return max(chunkSize(i)/s.RowSize, 1) }

// locate returns the arena chunk holding record rec and rec's index
// within it, from the row size alone.
func (s *OutSet) locate(rec int) (ci, off int) {
	for ci = 0; ci < growChunks; ci++ {
		n := s.perChunk(ci)
		if rec < n {
			return ci, rec
		}
		rec -= n
	}
	n := s.perChunk(growChunks)
	return growChunks + rec/n, rec % n
}
