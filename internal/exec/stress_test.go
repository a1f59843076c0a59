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

// TestModeSwitchStress flips every pipeline between bytecode and native
// code at every morsel boundary on every worker (flipEveryMorsel) while the
// adaptive controller evaluates and compiles on the same workers, and while
// three other goroutines execute the same query through the shared cache.
// Run under -race this verifies that handle swapping, the controller's
// compiles, and the cache are free of data races; correctness is checked
// against a bytecode-only reference.
func TestModeSwitchStress(t *testing.T) {
	modeSwitchStress(t, stressPlan)
}

// flipEveryMorsel returns an adaptive engine over o whose pipelines flip
// between bytecode and native code at every morsel, whatever the
// controller is doing to the same handle at that moment — far more violent
// than the controller ever is — so one query's rows, tuples and aggregates
// come from both tiers. The engine runs a zero-latency Paper() model, so
// every pipeline starts in bytecode, translated by the coordinator, and
// both variants exist. The hook keeps each handle's machine code itself
// and demotes by storing nil: the only demotion there is. Where there is
// no native back end bytecode stands in, so the flip cadence is the same
// everywhere. Every so often it also rules native code out, so the
// controller's choices shrink under it while it evaluates. It returns the
// count of flips and of flips to native code.
func flipEveryMorsel(o Options) (e *Engine, flips, native *atomic.Int64) {
	cost := Paper()
	cost.nativeBase, cost.nativePerInstr = 0, 0
	o.Mode, o.Cost = ModeAdaptive, cost
	e = New(o)
	flips, native = new(atomic.Int64), new(atomic.Int64)
	var code sync.Map // *Handle → *jit.Compiled
	e.morselHook = func(_ int, h *Handle, _ int) {
		n := flips.Add(1)
		var c *jit.Compiled
		if n%2 == 1 && asm.Supported() {
			v, ok := code.Load(h)
			if !ok {
				fresh, err := jit.Compile(h.Fn, jit.Unoptimized, nil)
				if err != nil {
					panic(err)
				}
				v, _ = code.LoadOrStore(h, fresh)
			}
			c = v.(*jit.Compiled)
			native.Add(1)
		}
		h.native.Store(c)
		if n%101 == 0 {
			h.DisableNative()
		}
	}
	return e, flips, native
}

// modeSwitchStress is TestModeSwitchStress over the plan build returns.
func modeSwitchStress(t *testing.T, build func() plan.Node) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode}).RunPlan(build(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))
	e, flips, nativeFlips := flipEveryMorsel(Options{Workers: 4, MorselSize: 32, CacheBytes: 1 << 20})

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
