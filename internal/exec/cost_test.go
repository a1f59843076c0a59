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
	}
	if speedupNative <= 1 {
		t.Error("native code not modeled faster than bytecode")
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
	decide := func(n float64) bool { return m.promote(500, 1e6, n, 4) }
	if decide(1000) {
		t.Error("tiny remainder promoted to native code")
	}
	if !decide(5e8) {
		t.Error("huge remainder stayed in bytecode")
	}
	// Monotonicity: once more remaining work promotes, still more does.
	promoted := false
	for _, n := range []float64{1e3, 1e5, 1e6, 1e7, 1e8, 1e9} {
		p := decide(n)
		if promoted && !p {
			t.Errorf("decision regressed at n=%g", n)
		}
		promoted = p
	}
}

// TestChooseTieBreaking pins the comparison and its arithmetic: strict <,
// so staying wins a tie, and while one worker compiles the other w-1 keep
// running bytecode.
func TestChooseTieBreaking(t *testing.T) {
	// A 2 s compile, one worker at 1e6 tuples/s, 3e6 tuples left: staying
	// takes exactly 3 s, and so does promoting, 2 s compiling plus 3e6
	// tuples at 3e6 tuples/s. A tie stays.
	tie := &CostModel{nativeBase: 2 * time.Second}
	if speedupNative != 3 {
		t.Fatalf("speedupNative %g: the tie below is computed for 3", speedupNative)
	}
	if tie.promote(0, 1e6, 3e6, 1) {
		t.Error("promoted on a tie with staying")
	}
	if !tie.promote(0, 1e6, 3.1e6, 1) {
		t.Error("stayed 0.1e6 tuples above the tie")
	}
	// A 1 s compile, 4 workers at 1e6 tuples/s, native code 3x: staying
	// takes n/4e6 s; promoting takes 1 + (n-3e6)/1.2e7 s, because the w-1
	// workers that are not compiling finish 3e6 tuples meanwhile. The
	// break-even is n = 4.5e6. Counting all w workers as running would
	// promote below it; counting none, only above 6e6.
	slow := &CostModel{nativeBase: time.Second}
	if slow.promote(0, 1e6, 4.4e6, 4) {
		t.Error("promoted 0.1e6 tuples below the break-even")
	}
	if !slow.promote(0, 1e6, 5e6, 4) {
		t.Error("stayed 0.5e6 tuples above the break-even")
	}
}

func TestGanttRendering(t *testing.T) {
	tr := NewTrace()
	base := tr.Origin()
	tr.Add(Event{Kind: EvMorsel, Pipeline: 0, Label: "scan x", Worker: 0,
		Start: 0, End: 10 * time.Millisecond})
	tr.Add(Event{Kind: EvNative, Pipeline: 0, Worker: -1, Level: LevelNative,
		Start: 2 * time.Millisecond, End: 5 * time.Millisecond})
	tr.Add(Event{Kind: EvMorsel, Pipeline: 1, Label: "probe y", Worker: 1,
		Start: 4 * time.Millisecond, End: 9 * time.Millisecond})
	g := tr.Gantt(50)
	for _, want := range []string{"w0", "w1", "cc", "scan x", "probe y", "N"} {
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
