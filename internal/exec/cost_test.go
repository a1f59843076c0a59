package exec

import (
	"strings"
	"testing"
	"time"
)

func TestCostModelMonotonicity(t *testing.T) {
	// Optimized compile times are the paper's (Paper() only: they are what
	// a simulated ModeOptimized waits for), above the unoptimized ones.
	m := Paper()
	prev := time.Duration(0)
	for _, n := range []int{100, 1000, 10000, 100000} {
		u := m.NativeTime(n)
		o := m.OptTime(n)
		if u <= 0 || o <= 0 {
			t.Fatalf("non-positive compile time at %d instrs", n)
		}
		if o < u {
			t.Errorf("optimized cheaper than unoptimized at %d instrs", n)
		}
		if u < prev {
			t.Errorf("unopt time not monotone at %d instrs", n)
		}
		prev = u
	}
	for _, m := range []*CostModel{Paper(), Native()} {
		prev := time.Duration(0)
		for _, n := range []int{100, 1000, 10000, 100000} {
			if d := m.NativeTime(n); d <= prev {
				t.Errorf("native time %v not increasing at %d instrs", d, n)
			} else {
				prev = d
			}
		}
		if m.Speedup(LevelNative) <= m.Speedup(LevelBytecode) {
			t.Error("native code not modeled faster than bytecode")
		}
		if m.Speedup(LevelBytecode) != 1 {
			t.Error("bytecode speedup must be 1")
		}
	}
}

// TestModelsShareThroughputPriors: both models price the same back end, so
// they differ in compile latency and Simulate only, never in a speedup.
func TestModelsShareThroughputPriors(t *testing.T) {
	p, n := Paper(), Native()
	for l := LevelBytecode; l < numLevels; l++ {
		if a, b := p.Speedup(l), n.Speedup(l); a != b {
			t.Errorf("%v: Paper() %g, Native() %g", l, a, b)
		}
	}
}

func TestPaperModelCalibration(t *testing.T) {
	m := Paper()
	// Table I anchor: ~2000 instructions compile in roughly 6 ms
	// unoptimized and ~42 ms optimized.
	u := m.NativeTime(2000)
	if u < 4*time.Millisecond || u > 9*time.Millisecond {
		t.Errorf("unopt(2000) = %v, want ~6ms", u)
	}
	o := m.OptTime(2000)
	if o < 30*time.Millisecond || o > 90*time.Millisecond {
		t.Errorf("opt(2000) = %v, want ~42-70ms", o)
	}
	// Fig. 15 anchor: ~10k instructions in one function exceed seconds.
	if m.OptTime(10000) < 3*time.Second {
		t.Errorf("opt(10000) = %v, want super-linear blowup", m.OptTime(10000))
	}
}

// TestExtrapolationChoosesStay verifies the controller's Fig. 7 decision
// at the boundary: with almost no work left, compiling never pays off.
func TestExtrapolationChoosesStay(t *testing.T) {
	m := Paper()
	decide := func(n float64, instrs int) Level {
		return m.choose(LevelBytecode, maskOf(LevelNative), instrs, 1e6, n, 4)
	}
	if got := decide(1000, 500); got != LevelBytecode {
		t.Errorf("tiny remainder chose %v", got)
	}
	if got := decide(5e8, 500); got == LevelBytecode {
		t.Errorf("huge remainder stayed in bytecode")
	}
	// Monotonicity: more remaining work never moves the decision toward a
	// cheaper tier.
	prev := LevelBytecode
	for _, n := range []float64{1e3, 1e5, 1e6, 1e7, 1e8, 1e9} {
		l := decide(n, 500)
		if l < prev {
			t.Errorf("decision regressed at n=%g", n)
		}
		prev = l
	}
}

// TestChooseTieBreaking pins the order of the comparison: strict <, so
// staying wins a tie with a candidate that is no faster, and a faster one
// wins.
func TestChooseTieBreaking(t *testing.T) {
	all := ModeAdaptive.levels().above(LevelBytecode)
	flat := &CostModel{SpeedupNative: 1}
	if got := flat.choose(LevelBytecode, all, 1000, 1e6, 1e8, 4); got != LevelBytecode {
		t.Errorf("no level is faster, yet chose %v over staying", got)
	}
	even := &CostModel{SpeedupNative: 2}
	if got := even.choose(LevelBytecode, all, 1000, 1e6, 1e8, 4); got != LevelNative {
		t.Errorf("native code twice as fast at no compile cost: chose %v", got)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := NewTrace()
	base := tr.Origin()
	tr.Add(Event{Kind: EvMorsel, Pipeline: 0, Label: "scan x", Worker: 0,
		Start: 0, End: 10 * time.Millisecond})
	tr.Add(Event{Kind: EvCompile, Pipeline: 0, Worker: -1,
		Start: 2 * time.Millisecond, End: 5 * time.Millisecond})
	tr.Add(Event{Kind: EvMorsel, Pipeline: 1, Label: "probe y", Worker: 1,
		Start: 4 * time.Millisecond, End: 9 * time.Millisecond})
	g := tr.Gantt(50)
	for _, want := range []string{"w0", "w1", "cc", "scan x", "probe y", "C"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
	// Merge shifts by origin delta without panicking.
	tr2 := NewTrace()
	tr2.Add(Event{Kind: EvMorsel, Pipeline: 2, Label: "z", Worker: 0,
		Start: 0, End: time.Millisecond})
	tr.Merge(tr2)
	if len(tr.Events()) != 4 {
		t.Errorf("merge lost events")
	}
	_ = base
}
