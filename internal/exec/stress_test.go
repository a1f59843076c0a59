package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
)

// stressPlan: a two-pipeline plan (join build + probe into an aggregate)
// over the shared test tables, large enough to produce many morsels.
func stressPlan() plan.Node {
	c := plan.NewScan(custT, "c_id", "c_seg")
	o := plan.NewScan(ordersT, "o_cust", "o_total")
	j := plan.NewJoin(plan.Inner, c, o,
		[]expr.Expr{plan.C(c.Schema(), "c_id")},
		[]expr.Expr{plan.C(o.Schema(), "o_cust")},
		[]string{"c_seg"})
	jsch := j.Schema()
	return plan.NewGroupBy(j,
		[]expr.Expr{plan.C(jsch, "c_seg")}, []string{"seg"},
		[]plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(jsch, "o_total"), Name: "s"},
			{Func: plan.CountStar, Name: "n"},
		})
}

// TestModeSwitchStress forces a tier switch at every morsel boundary on
// every worker — far more violent than the controller ever is — while the
// adaptive controller and the shared compile pool run concurrently, and
// while three other goroutines execute the same query through the shared
// cache. Run under -race this verifies that handle swapping, the compile
// pool, and the cache are free of data races; correctness is checked
// against a bytecode-only reference.
func TestModeSwitchStress(t *testing.T) {
	modeSwitchStress(t, stressPlan)
}

// modeSwitchStress is TestModeSwitchStress over the plan build returns.
func modeSwitchStress(t *testing.T, build func() plan.Node) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(build(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost,
		MorselSize: 32, CacheBytes: 1 << 20})

	// The hook walks every handle through the adaptive ladder, one level
	// per morsel: it stages what is missing and installs it, whatever the
	// controller and the compile pool are doing to the same handle at that
	// moment. Where there is no native backend bytecode stands in, so the
	// flip cadence is the same everywhere. Flipping a pipeline between
	// native code and bytecode mid-query is the tier-equivalence claim.
	// Every so often it also disables native code, so the controller's
	// choices shrink under it while it evaluates.
	var flips, nativeFlips atomic.Int64
	e.morselHook = func(pipeline int, h *Handle, worker int) {
		n := flips.Add(1)
		l := LevelBytecode
		if n%2 == 1 && asm.Supported() {
			l = LevelNative
			nativeFlips.Add(1)
		}
		if !h.Has(l) {
			c, err := jit.Compile(h.Fn, l.jit(), nil)
			if err != nil {
				panic(err)
			}
			h.Stage(c)
		}
		h.Install(l)
		if n%101 == 0 {
			h.Disable(maskOf(LevelNative))
		}
	}

	const parallel, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, parallel*rounds)
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.RunPlan(build(), "stress")
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
					errs <- fmt.Errorf("result diverged under tier flipping")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if flips.Load() == 0 {
		t.Fatal("morsel hook never fired")
	}
	if asm.Supported() && nativeFlips.Load() == 0 {
		t.Error("no morsel was ever flipped to native code")
	}
	if st := e.CacheStats(); st.Hits == 0 {
		t.Errorf("concurrent repeats never hit the cache: %+v", st)
	}
}

// TestSharedCompilePoolBounded hammers the pool with more jobs than the
// concurrency bound and asserts the bound holds and every job runs.
func TestSharedCompilePoolBounded(t *testing.T) {
	p := newCompilePool(3)
	var running, peak, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		p.submit(func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			running.Add(-1)
			done.Add(1)
		})
	}
	wg.Wait()
	if done.Load() != 200 {
		t.Fatalf("ran %d jobs, want 200", done.Load())
	}
	if peak.Load() > 3 {
		t.Fatalf("concurrency peak %d exceeds bound 3", peak.Load())
	}
}
