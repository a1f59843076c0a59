package rt

import (
	"encoding/binary"
	"math"
)

// AggKind identifies an aggregate function for the merge step. The per-
// tuple update happens in generated code; the runtime only needs enough
// semantics to combine per-worker hash tables.
type AggKind uint8

// Aggregate kinds. Sum is an overflow-checked sum of scaled integers,
// SumF a float sum, Count a counter, Min/Max signed integer extremes,
// MinF/MaxF float extremes (float bit patterns are not ordered like int64
// values for negatives, so they need their own comparison and identities).
const (
	AggSum AggKind = iota
	AggSumF
	AggCount
	AggMin
	AggMax
	AggMinF
	AggMaxF
)

// Init returns the identity bit pattern the aggregate field starts from.
func (k AggKind) Init() uint64 {
	switch k {
	case AggMin:
		return uint64(math.MaxInt64)
	case AggMax:
		return uint64(uint64(1) << 63) // math.MinInt64 bit pattern
	case AggMinF:
		return math.Float64bits(math.Inf(1))
	case AggMaxF:
		return math.Float64bits(math.Inf(-1))
	default:
		return 0
	}
}

// Combine merges src into dst, trapping on sum overflow. Float extremes
// keep dst when src is NaN — the same "comparison false keeps current"
// behaviour the generated per-tuple FCmp update has.
func (k AggKind) Combine(dst, src uint64) uint64 {
	switch k {
	case AggSum, AggCount:
		r := int64(dst) + int64(src)
		if k == AggSum && (int64(dst)^r)&(int64(src)^r) < 0 {
			Throw(TrapOverflow)
		}
		return uint64(r)
	case AggSumF:
		return math.Float64bits(math.Float64frombits(dst) + math.Float64frombits(src))
	case AggMin:
		if int64(src) < int64(dst) {
			return src
		}
		return dst
	case AggMinF:
		if math.Float64frombits(src) < math.Float64frombits(dst) {
			return src
		}
		return dst
	case AggMaxF:
		if math.Float64frombits(src) > math.Float64frombits(dst) {
			return src
		}
		return dst
	default:
		if int64(src) > int64(dst) {
			return src
		}
		return dst
	}
}

// AggField describes one aggregate slot inside a group entry.
type AggField struct {
	Kind AggKind
	Off  int // byte offset within the entry
}

// KeyField describes one group-key slot inside a group entry.
type KeyField struct {
	Off int
	Str bool // 16-byte (addr, len) string reference instead of an i64
}

// Group entry layout: [next u64][hash u64][keys...][aggs...]; codegen
// assigns the key and aggregate offsets and shares them with the runtime
// through AggSet.
const (
	aggEntryNextOff = 0
	aggEntryHashOff = 8
	// AggEntryHeader is the size of the entry header before keys.
	AggEntryHeader = 16
)

// AggSet is the per-pipeline set of per-worker aggregation hash tables.
// Each worker owns one table, so the per-tuple find-or-insert path needs
// no synchronization; Finalize merges the tables and builds a dense index
// of group entries for the next pipeline to scan — HyPer's thread-local
// pre-aggregation scheme.
type AggSet struct {
	mem       *Memory
	EntrySize int
	Keys      []KeyField
	Aggs      []AggField
	// LocalOff is the offset in each worker-local arena where the table
	// publishes [bucketsAddr u64][mask u64][scalarEntry u64].
	LocalOff int
	// Scalar marks a group-by without keys (a single global group).
	Scalar bool

	hts []*aggHT

	// Results of Finalize.
	IndexAddr Addr
	Groups    int
}

// LocalSlotBytes is the per-table reservation in the worker-local arena.
const LocalSlotBytes = 24

type aggHT struct {
	mem         *Memory
	set         *AggSet
	buckets     []byte
	bucketsAddr Addr
	mask        uint64
	count       int
	arena       *Arena
	localAddr   Addr // worker-local arena base
}

// NewAggSet creates the per-worker tables and initializes each worker's
// local-arena slots (bucket base, mask and — for scalar aggregation — the
// pre-created singleton entry).
func NewAggSet(mem *Memory, workers int, entrySize int, keys []KeyField,
	aggs []AggField, localOff int, scalar bool, locals []Addr) *AggSet {
	s := &AggSet{
		mem: mem, EntrySize: entrySize, Keys: keys, Aggs: aggs,
		LocalOff: localOff, Scalar: scalar,
	}
	for w := 0; w < workers; w++ {
		ht := &aggHT{mem: mem, set: s, arena: NewArena(mem), localAddr: locals[w]}
		ht.grow(64)
		s.hts = append(s.hts, ht)
	}
	if scalar {
		// Pre-create one properly linked entry per worker so the merge
		// and the group index see them like any other group.
		for w := 0; w < workers; w++ {
			e := s.Insert(w, 0)
			for _, a := range aggs {
				mem.Store64(e+Addr(a.Off), a.Kind.Init())
			}
			mem.Store64(locals[w]+Addr(localOff)+16, e)
		}
	}
	return s
}

func (ht *aggHT) grow(nb int) {
	newBuckets := make([]byte, nb*8)
	newMask := uint64(nb - 1)
	if ht.buckets == nil {
		ht.bucketsAddr = ht.mem.AddSegment(newBuckets)
	} else {
		// Relink every entry by walking the old chains — NOT the arena:
		// after Finalize starts merging, the table also links entries
		// that live in other workers' arenas.
		for b := 0; b < len(ht.buckets); b += 8 {
			e := leU64(ht.buckets[b:])
			for e != 0 {
				next := ht.mem.Load64(e + aggEntryNextOff)
				h := ht.mem.Load64(e + aggEntryHashOff)
				idx := (h & newMask) * 8
				ht.mem.Store64(e+aggEntryNextOff, leU64(newBuckets[idx:]))
				putU64(newBuckets[idx:], e)
				e = next
			}
		}
		// Growth is single-writer (each worker grows only its own table,
		// and the merge grows the target between pipelines), so replace
		// the backing bytes of the existing segment instead of abandoning
		// it: a long query's repeated doublings must not crawl toward the
		// segment-table cap.
		ht.mem.SetSegment(ht.bucketsAddr, newBuckets)
	}
	ht.buckets = newBuckets
	ht.mask = newMask
	ht.publish()
}

func (ht *aggHT) publish() {
	base := ht.localAddr + Addr(ht.set.LocalOff)
	ht.mem.Store64(base, ht.bucketsAddr)
	ht.mem.Store64(base+8, ht.mask)
}

// Insert allocates, links and returns a new zeroed entry for the given
// hash on worker w's table, growing the table when it passes 75% fill.
// Generated code stores the keys and initializes the aggregate slots of
// the returned entry, then falls through to its normal update path.
func (s *AggSet) Insert(w int, hash uint64) Addr {
	ht := s.hts[w]
	if ht.count*4 >= len(ht.buckets)/8*3 {
		ht.grow(len(ht.buckets) / 8 * 2)
	}
	e := ht.arena.Alloc(s.EntrySize)
	idx := (hash & ht.mask) * 8
	s.mem.Store64(e+aggEntryNextOff, leU64(ht.buckets[idx:]))
	s.mem.Store64(e+aggEntryHashOff, hash)
	putU64(ht.buckets[idx:], e)
	ht.count++
	return e
}

// keysEqual compares the group keys of two entries.
func (s *AggSet) keysEqual(a, b Addr) bool {
	for _, k := range s.Keys {
		if k.Str {
			aAddr, aLen := s.mem.Load64(a+Addr(k.Off)), s.mem.Load64(a+Addr(k.Off)+8)
			bAddr, bLen := s.mem.Load64(b+Addr(k.Off)), s.mem.Load64(b+Addr(k.Off)+8)
			if aLen != bLen {
				return false
			}
			ab := s.mem.Bytes(aAddr, int(aLen))
			bb := s.mem.Bytes(bAddr, int(bLen))
			if string(ab) != string(bb) {
				return false
			}
		} else if s.mem.Load64(a+Addr(k.Off)) != s.mem.Load64(b+Addr(k.Off)) {
			return false
		}
	}
	return true
}

// mergeSerial is Finalize's one-partition path: it merges workers 1..n
// into worker 0's live table and builds the dense group index the
// follow-up pipeline scans.
func (s *AggSet) mergeSerial() {
	target := s.hts[0]
	for _, ht := range s.hts[1:] {
		ht.arena.Each(s.EntrySize, func(e Addr) {
			h := s.mem.Load64(e + aggEntryHashOff)
			// Find in target.
			idx := (h & target.mask) * 8
			cur := leU64(target.buckets[idx:])
			for cur != 0 {
				if s.mem.Load64(cur+aggEntryHashOff) == h && s.keysEqual(cur, e) {
					for _, a := range s.Aggs {
						dst := s.mem.Load64(cur + Addr(a.Off))
						src := s.mem.Load64(e + Addr(a.Off))
						s.mem.Store64(cur+Addr(a.Off), a.Kind.Combine(dst, src))
					}
					return
				}
				cur = s.mem.Load64(cur + aggEntryNextOff)
			}
			// Move the entry into the target table.
			if target.count*4 >= len(target.buckets)/8*3 {
				target.grow(len(target.buckets) / 8 * 2)
				idx = (h & target.mask) * 8
			}
			s.mem.Store64(e+aggEntryNextOff, leU64(target.buckets[idx:]))
			putU64(target.buckets[idx:], e)
			target.count++
		})
	}
	// Entries adopted from other workers still live in their original
	// arenas, so the dense index walks the bucket chains rather than the
	// target arena.
	index := make([]byte, target.count*8)
	i := 0
	for b := 0; b < len(target.buckets); b += 8 {
		for e := leU64(target.buckets[b:]); e != 0; e = s.mem.Load64(e + aggEntryNextOff) {
			putU64(index[i*8:], e)
			i++
		}
	}
	s.Groups = target.count
	s.IndexAddr = s.mem.AddSegment(index)
}

// Finalize merges the per-worker tables with up to parts hash-range
// partitions scheduled through pfor, then builds the dense group index in
// parallel. Each partition task owns a contiguous bucket-index range of a
// fresh table sized for the combined entry count and merges that range from
// every source table, visiting sources in worker order and entries in arena
// order — the same encounter order as the one-partition merge, so
// representative entries, float Combine order, and therefore checksums do
// not depend on the partition count. Returns the partition count actually
// used (1 when the tables are too small to benefit).
func (s *AggSet) Finalize(parts int, pfor ParallelFor) int {
	total := 0
	for _, ht := range s.hts {
		total += ht.count
	}
	if total == 0 {
		s.Groups = 0
		s.IndexAddr = s.mem.ZeroSeg()
		return 1
	}
	nb := nextPow2(2 * total)
	if parts > nb {
		parts = nb
	}
	if parts < 1 || total < minParallelBreaker {
		parts = 1
	}
	if parts == 1 {
		// One partition degenerates to the serial merge, which is strictly
		// cheaper: it merges into worker 0's live table instead of
		// re-linking every entry into a fresh one. It still runs through
		// pfor, like every partition, so the engine schedules it.
		pfor(1, func(int) { s.mergeSerial() })
		return 1
	}
	// A fresh bucket array sized up front: no mid-merge growth, so the
	// partition ranges stay fixed and writes stay disjoint. The plain slice
	// is never published — probes of the follow-up pipeline scan the dense
	// index, not the buckets.
	buckets := make([]byte, nb*8)
	mask := uint64(nb - 1)
	counts := make([]int, parts+1)

	mergeRange := func(p int, lo, hi uint64) {
		groups := 0
		for _, ht := range s.hts {
			ht.arena.EachChunk(func(base Addr, data []byte) {
				for off := 0; off+s.EntrySize <= len(data); off += s.EntrySize {
					e := base + Addr(off)
					h := leU64(data[off+aggEntryHashOff:])
					idx := h & mask
					if idx < lo || idx >= hi {
						continue
					}
					bi := idx * 8
					cur := leU64(buckets[bi:])
					merged := false
					for cur != 0 {
						if s.mem.Load64(cur+aggEntryHashOff) == h && s.keysEqual(cur, e) {
							for _, a := range s.Aggs {
								dst := s.mem.Load64(cur + Addr(a.Off))
								src := s.mem.Load64(e + Addr(a.Off))
								s.mem.Store64(cur+Addr(a.Off), a.Kind.Combine(dst, src))
							}
							merged = true
							break
						}
						cur = s.mem.Load64(cur + aggEntryNextOff)
					}
					if !merged {
						s.mem.Store64(e+aggEntryNextOff, leU64(buckets[bi:]))
						putU64(buckets[bi:], e)
						groups++
					}
				}
			})
		}
		counts[p+1] = groups
	}

	rangeOf := func(p int) (uint64, uint64) {
		return uint64(p) * uint64(nb) / uint64(parts),
			uint64(p+1) * uint64(nb) / uint64(parts)
	}
	pfor(parts, func(p int) {
		lo, hi := rangeOf(p)
		mergeRange(p, lo, hi)
	})

	// Prefix-sum the per-partition group counts, then fill the dense index
	// in parallel: partition p writes index slots [counts[p], counts[p+1])
	// in bucket order, matching the one-partition index order.
	for p := 0; p < parts; p++ {
		counts[p+1] += counts[p]
	}
	groups := counts[parts]
	index := make([]byte, groups*8)
	fillRange := func(p int, lo, hi uint64) {
		i := counts[p]
		for b := lo * 8; b < hi*8; b += 8 {
			for e := leU64(buckets[b:]); e != 0; e = s.mem.Load64(e + aggEntryNextOff) {
				putU64(index[i*8:], e)
				i++
			}
		}
	}
	pfor(parts, func(p int) {
		lo, hi := rangeOf(p)
		fillRange(p, lo, hi)
	})
	s.Groups = groups
	s.IndexAddr = s.mem.AddSegment(index)
	return parts
}

func leU64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func leU16(b []byte) uint16     { return binary.LittleEndian.Uint16(b) }
func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
