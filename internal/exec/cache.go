package exec

import (
	"container/list"
	"sync"

	"aqe/internal/jit"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// planCache is the engine-level compilation cache: it maps plan
// fingerprints to the translated bytecode of every pipeline (plus
// queryStart), its vectorized kernel and its compiled variant of the
// engine's one compiled level, so a repeated query skips translation
// entirely and starts executing in the best level reached by any earlier
// execution instead of re-climbing from bytecode.
//
// Entries are evicted in LRU order once the byte budget is exceeded. The
// budget tracks an estimate of the retained footprint (bytecode
// instructions, constant pools, machine code or closure graphs); a
// background compilation finishing after its query can still grow an
// entry, which may in turn evict colder ones.
type planCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // of *cachedPlan, front = most recent
	idx    map[Fingerprint]*list.Element

	hits, misses, evictions int64
}

// cachedPlan is one cache entry. Entries are mutated only under the cache
// mutex; lookups hand out immutable snapshots.
type cachedPlan struct {
	fp         Fingerprint
	queryStart *vm.Program
	pipes      []cachedPipe
	bytes      int64
}

// cachedPipe holds the artifacts of one pipeline — the variants a warm
// run's Handle starts with — and the engine memo.
type cachedPipe struct {
	variants
	// vecBest records whether the most recent execution promoted this
	// pipeline to the vectorized engine and finished it there; a warm
	// adaptive run then starts there directly instead of re-discovering the
	// engine choice from morsel rates (the engine analogue of starting in
	// the best compiled tier reached earlier). That run cannot verify the
	// level, so it clears the memo: it is believed once (runPipeline).
	vecBest bool
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
// hit or miss. The snapshot's pipes slice is a copy: concurrent
// addCompiled calls mutate the cached entry, never the snapshot.
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
	snap := &cachedPlan{fp: ent.fp, queryStart: ent.queryStart, bytes: ent.bytes}
	snap.pipes = append([]cachedPipe(nil), ent.pipes...)
	return snap
}

// insert adds a freshly translated plan. A concurrent duplicate insert
// keeps the existing entry (its compiled variants may already be attached).
func (c *planCache) insert(fp Fingerprint, queryStart *vm.Program, progs []*vm.Program) {
	ent := &cachedPlan{fp: fp, queryStart: queryStart}
	ent.bytes = int64(queryStart.SizeBytes())
	for _, p := range progs {
		ent.pipes = append(ent.pipes, cachedPipe{variants: variants{prog: p}})
		ent.bytes += int64(p.SizeBytes())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.idx[fp]; ok {
		return
	}
	c.idx[fp] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	c.evict()
}

// addCompiled attaches a compiled variant to a cached pipeline. It is a
// no-op if the entry was evicted or the pipeline has one already (the
// first finished compilation wins; both artifacts are equivalent).
func (c *planCache) addCompiled(fp Fingerprint, pipe int, comp *jit.Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		return
	}
	ent := el.Value.(*cachedPlan)
	if pipe >= len(ent.pipes) || ent.pipes[pipe].compiled != nil {
		return
	}
	ent.pipes[pipe].compiled = comp
	n := int64(comp.SizeBytes())
	ent.bytes += n
	c.bytes += n
	c.evict()
}

// vecKernelBytes is the footprint estimate of a cached vectorized kernel:
// the spec's expression trees and lookup maps are small compared to
// bytecode programs or closure graphs.
const vecKernelBytes = 2048

// addVector attaches a vectorized kernel to a cached pipeline slot. First
// finished compilation wins, like addCompiled.
func (c *planCache) addVector(fp Fingerprint, pipe int, k *vector.Kernel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		return
	}
	ent := el.Value.(*cachedPlan)
	if pipe >= len(ent.pipes) || ent.pipes[pipe].vec != nil {
		return
	}
	ent.pipes[pipe].vec = k
	ent.bytes += vecKernelBytes
	c.bytes += vecKernelBytes
	c.evict()
}

// noteEngine records whether the most recent execution of pipeline `pipe`
// earned the vectorized engine (promoted to it and finished in it). Last
// writer wins: the memo tracks the current preference, not history.
func (c *planCache) noteEngine(fp Fingerprint, pipe int, vec bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		return
	}
	ent := el.Value.(*cachedPlan)
	if pipe < len(ent.pipes) {
		ent.pipes[pipe].vecBest = vec
	}
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
