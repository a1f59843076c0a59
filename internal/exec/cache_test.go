package exec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/vm"
)

// mkProg builds a dummy program with a known SizeBytes.
func mkProg(name string, insts int) *vm.Program {
	return &vm.Program{Name: name, Code: make([]vm.Inst, insts)}
}

// put inserts a one-pipeline plan whose pipeline has bytecode prog.
func put(c *planCache, fp Fingerprint, prog *vm.Program) {
	c.insert(fp, 1)
	c.addProgram(fp, 0, prog)
}

func TestPlanCacheLRUAndBudget(t *testing.T) {
	one := mkProg("p", 10) // SizeBytes ≈ 64+1+240
	entryBytes := planEntryBytes + int64(one.SizeBytes())
	// Budget fits three entries (the entry + one pipeline each).
	c := newPlanCache(3 * entryBytes)
	fp := func(i byte) Fingerprint { return Fingerprint{i} }

	for i := byte(1); i <= 3; i++ {
		put(c, fp(i), mkProg("p", 10))
	}
	st := c.stats()
	if st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("after 3 inserts: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("over budget: %+v", st)
	}

	// Touch entry 1 so entry 2 is the LRU victim, then insert past the
	// budget: eviction counters must rise and accounting stay consistent.
	if c.lookup(fp(1)) == nil {
		t.Fatal("expected hit on entry 1")
	}
	put(c, fp(4), mkProg("p", 10))
	st = c.stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after overflow insert: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("over budget after eviction: %+v", st)
	}
	if c.lookup(fp(2)) != nil {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if c.lookup(fp(1)) == nil || c.lookup(fp(4)) == nil {
		t.Fatal("recently used entries evicted")
	}
	st = c.stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}

func TestPlanCacheCompiledGrowthEvicts(t *testing.T) {
	// Attaching compiled code grows an entry past the budget and must
	// evict colder entries rather than blow the cap.
	small := mkProg("p", 4)
	per := planEntryBytes + int64(small.SizeBytes())
	c := newPlanCache(2*per + 64)
	a, b := Fingerprint{1}, Fingerprint{2}
	put(c, a, mkProg("p", 4))
	put(c, b, mkProg("p", 4))

	comp := &jit.Compiled{Name: strings.Repeat("x", 80<<10)} // ≈ 80 KB, far over budget
	c.addCompiled(b, 0, comp)
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("growth did not evict: %+v", st)
	}
	if st.Bytes > st.Budget && st.Entries > 0 {
		t.Fatalf("cap violated with entries resident: %+v", st)
	}
}

func TestPlanCacheSnapshotIsolation(t *testing.T) {
	// A lookup snapshot must not observe later addCompiled mutations
	// (the engine reads the snapshot outside the cache lock).
	c := newPlanCache(1 << 20)
	fp := Fingerprint{7}
	put(c, fp, mkProg("p", 2))
	snap := c.lookup(fp)
	c.addCompiled(fp, 0, &jit.Compiled{})
	if snap.pipes[0].compiled != nil {
		t.Fatal("snapshot aliases the cached entry")
	}
	if c.lookup(fp).pipes[0].compiled == nil {
		t.Fatal("compiled variant not attached")
	}
}

// repeatPlan is a distinct-by-constant plan family for engine-level tests.
func repeatPlan(k int64) func() plan.Node {
	return func() plan.Node {
		s := plan.NewScan(ordersT, "o_total", "o_date")
		sch := s.Schema()
		s.Where(expr.Gt(plan.C(sch, "o_total"), expr.Dec(k, 2)))
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"},
			{Func: plan.CountStar, Name: "n"},
		})
	}
}

func TestEngineCacheHitIdenticalResults(t *testing.T) {
	for _, mode := range []Mode{ModeBytecode, ModeNative, ModeOptimized, ModeAdaptive, ModeIRInterp} {
		e := New(Options{Workers: 2, Mode: mode, Cost: Native(),
			CacheBytes: 8 << 20})
		build := repeatPlan(40000)
		cold, err := e.RunPlan(build(), "repeat")
		if err != nil {
			t.Fatalf("%v cold: %v", mode, err)
		}
		if cold.Stats.CacheHit {
			t.Fatalf("%v: cold run reported a cache hit", mode)
		}
		warm, err := e.RunPlan(build(), "repeat")
		if err != nil {
			t.Fatalf("%v warm: %v", mode, err)
		}
		if !warm.Stats.CacheHit {
			t.Fatalf("%v: warm run missed the cache", mode)
		}
		a := canon(cold.Rows, cold.Types)
		b := canon(warm.Rows, warm.Types)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%v: cached execution diverged:\n%v\n%v", mode, a, b)
		}
		if warm.Stats.Fingerprint != cold.Stats.Fingerprint {
			t.Fatalf("%v: fingerprints differ across runs", mode)
		}
		st := e.CacheStats()
		if st.Hits < 1 || st.Misses < 1 {
			t.Fatalf("%v: cache counters %+v", mode, st)
		}
	}
}

func TestEngineCacheSkipsSimulatedCompile(t *testing.T) {
	// With a simulated 30 ms compile latency, the cold optimized run must
	// pay it and the warm run must not — the measurable latency drop the
	// cache exists for. Without a native backend nothing compiles, so
	// nothing is waited for.
	if !asm.Supported() {
		t.Skip("no native backend on this platform")
	}
	cost := &CostModel{nativeBase: 30 * time.Millisecond, optBase: 30 * time.Millisecond,
		simulate: true}
	e := New(Options{Workers: 2, Mode: ModeOptimized, Cost: cost, CacheBytes: 8 << 20})
	build := repeatPlan(60000)
	cold, err := e.RunPlan(build(), "sim")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.RunPlan(build(), "sim")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Compile < 30*time.Millisecond {
		t.Fatalf("cold compile %v, want ≥ 30ms", cold.Stats.Compile)
	}
	if warm.Stats.Compile > 10*time.Millisecond {
		t.Fatalf("warm compile %v, want ≈ 0", warm.Stats.Compile)
	}
	if warm.Stats.Translate > cold.Stats.Translate && warm.Stats.Translate > time.Millisecond {
		t.Fatalf("warm translate %v not reduced (cold %v)", warm.Stats.Translate, cold.Stats.Translate)
	}
}

func TestEngineCacheEvictionUnderPressure(t *testing.T) {
	// A budget big enough for roughly one plan: distinct plans churn
	// through and evict each other; counters must stay consistent.
	e := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: 4 << 10})
	for i := 0; i < 6; i++ {
		if _, err := e.RunPlan(repeatPlan(int64(10000+i))(), "churn"); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.Misses != 6 {
		t.Fatalf("expected 6 misses, got %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("budget violated: %+v", st)
	}
}
