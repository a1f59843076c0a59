package rt

import "encoding/binary"

// Keep selects the build tuples a build-side join emits.
type Keep uint8

// The three build-side join kinds: tuples with at least one match (semi),
// tuples with none (anti), every tuple with its match count (count).
const (
	KeepMatched Keep = iota
	KeepUnmatched
	KeepAll
)

// Marks is the match-count state of a build-side join, whose hash table
// holds the side the join returns. Its life has three steps:
//
//   - The build's Finalize numbers the tuples in arena order, writing each
//     ordinal into the tuple's 8-byte mark at Off, and publishes one zeroed
//     count array per worker in that worker's local slot at LocalOff.
//   - The probe pipeline walks every chain to its end and, per match, adds
//     one to counts[ordinal] in its own worker's array: plain loads and
//     stores, no atomics, no write shared between workers.
//   - Emit sums the arrays, writes each tuple's total over its ordinal, and
//     publishes the dense index of the tuples Keep selects at IndexStateOff,
//     which sources the pipeline that scans them.
type Marks struct {
	MarkLayout

	counts [][]byte // per worker, 8 bytes per tuple
	// Emitted is the number of tuples in the published index.
	Emitted int
}

// MarkLayout is the part of Marks the code generator decides: where the
// mark sits in a tuple, which worker-local and state slots the count arrays
// and the index are published in, and which tuples the join emits.
type MarkLayout struct {
	Off           int
	LocalOff      int
	IndexStateOff int
	Keep          Keep
}

// AddMarkJoin registers the hash table of a build-side join and returns its
// id; it lives in Joins like every join's table.
func (q *QueryState) AddMarkJoin(tupleSize, stateOff, winOff int, l MarkLayout) int {
	id := q.AddJoin(tupleSize, stateOff, winOff)
	h := q.Joins[id]
	h.Marks = &Marks{MarkLayout: l}
	h.locals = q.Locals
	return id
}

// number writes each tuple's ordinal into its mark and publishes a zeroed
// count array per worker. It runs on the finalizing goroutine, after the
// chains are linked and before any probe.
func (h *JoinHT) number() {
	m := h.Marks
	ord := uint64(0)
	for _, a := range h.arenas {
		a.EachChunk(func(_ Addr, data []byte) {
			for off := 0; off+h.TupleSize <= len(data); off += h.TupleSize {
				putU64(data[off+m.Off:], ord)
				ord++
			}
		})
	}
	m.counts = make([][]byte, len(h.locals))
	for w, local := range h.locals {
		base := h.mem.ZeroSeg()
		if h.Count > 0 {
			m.counts[w] = make([]byte, 8*h.Count)
			base = h.mem.AddSegment(m.counts[w])
		}
		h.mem.Store64(local+Addr(m.LocalOff), base)
	}
}

// Emit runs once the probe pipeline has drained: it sums the workers'
// counts per tuple, stores each total in the tuple's mark (where the scan
// of a RightCount join reads it), and publishes the index of the tuples
// Keep selects, in arena order. It returns the number emitted.
func (h *JoinHT) Emit(stateAddr Addr) int {
	m := h.Marks
	index := make([]byte, 0, 8*h.Count)
	i := 0
	for _, a := range h.arenas {
		a.EachChunk(func(base Addr, data []byte) {
			for off := 0; off+h.TupleSize <= len(data); off += h.TupleSize {
				var n uint64
				for _, c := range m.counts {
					n += leU64(c[8*i:])
				}
				i++
				putU64(data[off+m.Off:], n)
				if m.Keep == KeepAll || (n > 0) == (m.Keep == KeepMatched) {
					index = binary.LittleEndian.AppendUint64(index, base+Addr(off))
				}
			}
		})
	}
	m.Emitted = len(index) / 8
	idx := h.mem.ZeroSeg()
	if m.Emitted > 0 {
		idx = h.mem.AddSegment(index)
	}
	h.mem.Store64(stateAddr+Addr(m.IndexStateOff), idx)
	return m.Emitted
}
