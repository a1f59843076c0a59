package exec

import (
	"container/list"
	"sync"

	"aqe/internal/jit"
	"aqe/internal/vm"
)

// planCache is the engine-level compilation cache: it maps plan
// fingerprints to every variant any run made of each pipeline — its
// bytecode and its compiled variant of the engine's one compiled level —
// so a repeated query skips translation and starts executing in the best
// level reached by any earlier execution instead of re-climbing from
// bytecode.
//
// Entries are evicted in LRU order once the byte budget is exceeded. The
// budget tracks an estimate of the retained footprint (the entry itself,
// bytecode instructions, constant pools, machine code); a variant
// made after its entry was inserted (a pipeline translated at its start, a
// background compilation finishing after its query) still grows the entry,
// which may in turn evict colder ones.
type planCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // of *cachedPlan, front = most recent
	idx    map[Fingerprint]*list.Element

	hits, misses, evictions int64
}

// cachedPlan is one cache entry: per pipeline, the variants a warm run's
// Handle starts with. Entries are mutated only under the cache mutex;
// lookups hand out immutable snapshots.
type cachedPlan struct {
	fp    Fingerprint
	pipes []variants
	bytes int64
}

// CacheStats is a snapshot of the compilation-cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Budget    int64
}

func newPlanCache(budget int64) *planCache {
	return &planCache{
		budget: budget,
		lru:    list.New(),
		idx:    make(map[Fingerprint]*list.Element),
	}
}

// lookup returns a snapshot of the entry for fp, or nil, and counts the
// hit or miss. The snapshot's pipes slice is a copy: concurrent attach
// calls mutate the cached entry, never the snapshot.
func (c *planCache) lookup(fp Fingerprint) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	ent := el.Value.(*cachedPlan)
	snap := &cachedPlan{fp: ent.fp, bytes: ent.bytes}
	snap.pipes = append([]variants(nil), ent.pipes...)
	return snap
}

// planEntryBytes is the footprint estimate of an entry before any variant
// is attached: the entry, its pipeline slots, its list element and index
// slot.
const planEntryBytes = 256

// insert adds the entry of a plan with pipes pipelines, none of which has
// a variant yet. A concurrent duplicate insert keeps the existing entry
// (its variants may already be attached).
func (c *planCache) insert(fp Fingerprint, pipes int) {
	ent := &cachedPlan{fp: fp, pipes: make([]variants, pipes), bytes: planEntryBytes}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.idx[fp]; ok {
		return
	}
	c.idx[fp] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	c.evict()
}

// attach updates pipeline pipe of the entry for fp under the mutex and
// charges the bytes set reports adding. It is a no-op if the entry was
// evicted.
func (c *planCache) attach(fp Fingerprint, pipe int, set func(*variants) int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		return
	}
	ent := el.Value.(*cachedPlan)
	if pipe >= len(ent.pipes) {
		return
	}
	n := set(&ent.pipes[pipe])
	ent.bytes += n
	c.bytes += n
	c.evict()
}

// addProgram attaches a pipeline's bytecode program. Like every add, the
// first variant of a kind wins; later ones are equivalent.
func (c *planCache) addProgram(fp Fingerprint, pipe int, p *vm.Program) {
	c.attach(fp, pipe, func(cp *variants) int64 {
		if cp.prog != nil {
			return 0
		}
		cp.prog = p
		return int64(p.SizeBytes())
	})
}

// addCompiled attaches a compiled variant to a cached pipeline.
func (c *planCache) addCompiled(fp Fingerprint, pipe int, comp *jit.Compiled) {
	c.attach(fp, pipe, func(cp *variants) int64 {
		if cp.compiled != nil {
			return 0
		}
		cp.compiled = comp
		return int64(comp.SizeBytes())
	})
}

// evict drops LRU entries until the budget is respected. Called with the
// mutex held. An entry larger than the whole budget is evicted too: the
// budget is a hard cap, not a guideline.
func (c *planCache) evict() {
	for c.bytes > c.budget && c.lru.Len() > 0 {
		el := c.lru.Back()
		ent := el.Value.(*cachedPlan)
		c.lru.Remove(el)
		delete(c.idx, ent.fp)
		c.bytes -= ent.bytes
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.lru.Len(), Bytes: c.bytes, Budget: c.budget,
	}
}
