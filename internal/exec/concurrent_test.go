package exec

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aqe/internal/tpch"
)

// TestConcurrentDifferential runs 8 TPC-H queries in flight at once on a
// single engine — shared worker pool, shared plan cache, admission queue
// smaller than the query count — for every execution tier, and asserts
// each result is bit-identical to the serial single-query execution. Run
// under -race this is the scheduler's main correctness net: morsels of
// all 8 queries interleave on the same pool workers.
func TestConcurrentDifferential(t *testing.T) {
	cat := diffCat()
	const inFlight = 8

	// Serial reference: one query at a time on a plain bytecode engine.
	want := make(map[int]string)
	ref := New(Options{Workers: 1, Mode: ModeBytecode})
	for qn := 1; qn <= inFlight; qn++ {
		res, err := ref.Run(tpch.Query(cat, qn))
		if err != nil {
			t.Fatalf("serial Q%d: %v", qn, err)
		}
		want[qn] = checksum(res)
	}

	modes := []Mode{ModeBytecode, ModeNative, ModeOptimized, ModeAdaptive, ModeIRInterp}
	for _, mode := range modes {
		e := New(Options{Workers: 2, PoolWorkers: 4, MaxConcurrent: 4,
			Mode: mode, Cost: Native(), MorselSize: 512, CacheBytes: 64 << 20})
		var wg sync.WaitGroup
		for qn := 1; qn <= inFlight; qn++ {
			wg.Add(1)
			go func(qn int) {
				defer wg.Done()
				res, err := e.Run(tpch.Query(cat, qn))
				if err != nil {
					t.Errorf("%v Q%d: %v", mode, qn, err)
					return
				}
				if got := checksum(res); got != want[qn] {
					t.Errorf("%v Q%d concurrent: checksum %s, want %s", mode, qn, got, want[qn])
				}
			}(qn)
		}
		wg.Wait()
		// No admission ticket may outlive its query (queueing itself is
		// timing-dependent at this scale; TestQueuedStats pins it).
		if st := e.SchedStats(); st.Running != 0 || st.Waiting != 0 {
			t.Errorf("%v: tickets leaked after drain (%+v)", mode, st)
		}
	}
}

// TestCancelLandsWithinOneMorsel pins the preemption granularity: with a
// single pool worker, a cancel issued from the morsel hook must stop the
// query before the next claim — zero further morsels, not "whenever the
// scan finishes".
func TestCancelLandsWithinOneMorsel(t *testing.T) {
	mk := func() *Engine {
		return New(Options{Workers: 1, PoolWorkers: 1, Mode: ModeBytecode,
			MorselSize: 256, MorselCap: 256})
	}

	// Control: count the morsels of an uncancelled run.
	var baseline int
	{
		e := mk()
		e.morselHook = func(int, *Handle, int) { baseline++ }
		if _, err := e.RunPlan(stressPlan(), "control"); err != nil {
			t.Fatal(err)
		}
	}
	if baseline < 10 {
		t.Fatalf("control run dispatched only %d morsels; plan too small to observe preemption", baseline)
	}

	const cancelAt = 3
	e := mk()
	ctx, cancel := context.WithCancel(context.Background())
	var morsels int
	e.morselHook = func(int, *Handle, int) {
		morsels++
		if morsels == cancelAt {
			cancel()
			<-ctx.Done()
			// Give the AfterFunc watcher its goroutine switch; the single
			// pool worker is right here, so nothing can claim meanwhile.
			time.Sleep(5 * time.Millisecond)
		}
	}
	res, err := e.RunPlanCtx(ctx, stressPlan(), "cancelled")
	if err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Error("Stats.Cancelled not set on cancelled query")
	}
	if len(res.Rows) != 0 {
		t.Errorf("cancelled query returned %d rows", len(res.Rows))
	}
	if morsels > cancelAt+1 {
		t.Errorf("%d morsels dispatched after cancel at morsel %d; preemption did not land within one morsel",
			morsels-cancelAt, cancelAt)
	}
}

// TestDeadlineCancels asserts a context deadline terminates a query with
// DeadlineExceeded through the same preemption path.
func TestDeadlineCancels(t *testing.T) {
	e := New(Options{Workers: 2, PoolWorkers: 2, Mode: ModeBytecode, MorselSize: 64})
	// A deadline that has surely expired by the first preemption check.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	res, err := e.RunPlanCtx(ctx, stressPlan(), "deadline")
	if err == nil {
		t.Fatal("deadline query returned no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Error("Stats.Cancelled not set")
	}
}

// TestQueuedStats asserts a query held at the admission gate reports the
// wait: cap 1, the first query is gated open only after the second has
// visibly queued.
func TestQueuedStats(t *testing.T) {
	e := New(Options{Workers: 1, PoolWorkers: 1, MaxConcurrent: 1,
		Mode: ModeBytecode, MorselSize: 256})
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	e.morselHook = func(int, *Handle, int) {
		once.Do(func() { close(started) })
		<-release
	}

	resA := make(chan *Result, 1)
	go func() {
		res, err := e.RunPlan(stressPlan(), "holder")
		if err != nil {
			t.Error(err)
		}
		resA <- res
	}()
	<-started
	resB := make(chan *Result, 1)
	go func() {
		res, err := e.RunPlan(stressPlan(), "queued")
		if err != nil {
			t.Error(err)
		}
		resB <- res
	}()
	deadline := time.Now().Add(2 * time.Second)
	for e.SchedStats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	a, b := <-resA, <-resB
	if a == nil || b == nil {
		t.Fatal("missing results")
	}
	if a.Stats.Queued {
		t.Error("first query reported queued")
	}
	if !b.Stats.Queued || b.Stats.WaitTime <= 0 {
		t.Errorf("queued query stats: queued=%v wait=%v", b.Stats.Queued, b.Stats.WaitTime)
	}
}

// TestCancellationSoak fires 200 iterations of concurrent queries with
// random deadlines and mid-flight cancels at one shared engine, then
// asserts (a) no goroutines leaked — pool workers, compile workers, and
// cancellation watchers are all ephemeral — and (b) the shared plan cache
// stayed consistent: every query still returns bit-identical results.
func TestCancellationSoak(t *testing.T) {
	cat := diffCat()
	qns := []int{1, 3, 6}

	// References from a fresh serial engine.
	want := make(map[int]string)
	ref := New(Options{Workers: 1, Mode: ModeBytecode})
	for _, qn := range qns {
		res, err := ref.Run(tpch.Query(cat, qn))
		if err != nil {
			t.Fatal(err)
		}
		want[qn] = checksum(res)
	}

	before := runtime.NumGoroutine()
	e := New(Options{Workers: 2, PoolWorkers: 2, MaxConcurrent: 3,
		Mode: ModeAdaptive, Cost: Native(), MorselSize: 256, CacheBytes: 32 << 20})
	rng := rand.New(rand.NewSource(7))
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		var wg sync.WaitGroup
		for _, qn := range qns[:1+rng.Intn(len(qns))] {
			wg.Add(1)
			go func(qn, kind int, after time.Duration) {
				defer wg.Done()
				ctx := context.Background()
				var cancel context.CancelFunc
				switch kind {
				case 0: // random deadline, often mid-query
					ctx, cancel = context.WithTimeout(ctx, after)
				case 1: // explicit cancel from a second goroutine
					ctx, cancel = context.WithCancel(ctx)
					go func(c context.CancelFunc, d time.Duration) {
						time.Sleep(d)
						c()
					}(cancel, after)
				default: // run to completion
				}
				if cancel != nil {
					defer cancel()
				}
				res, err := e.RunCtx(ctx, tpch.Query(cat, qn))
				if err != nil {
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("iter %d Q%d: %v", i, qn, err)
					}
					return
				}
				if got := checksum(res); got != want[qn] {
					t.Errorf("iter %d Q%d: checksum %s, want %s", i, qn, got, want[qn])
				}
			}(qn, rng.Intn(3), time.Duration(rng.Intn(2000))*time.Microsecond)
		}
		wg.Wait()
	}

	// Leak check: pool workers, compile workers, and watchers must all be
	// gone once the engine idles (GC/sweep goroutines may need a moment).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before soak, %d after — leak", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cache consistency: the survivor engine still answers correctly.
	for _, qn := range qns {
		res, err := e.Run(tpch.Query(cat, qn))
		if err != nil {
			t.Fatalf("post-soak Q%d: %v", qn, err)
		}
		if got := checksum(res); got != want[qn] {
			t.Errorf("post-soak Q%d: checksum %s, want %s — cache corrupted by cancels", qn, got, want[qn])
		}
	}
	if st := e.CacheStats(); st.Entries == 0 || st.Hits == 0 {
		t.Errorf("implausible cache stats after soak: %+v", st)
	}
}
