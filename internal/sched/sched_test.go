package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmissionCap asserts the concurrency cap is never exceeded: N
// goroutines admit, bump a concurrency gauge, and release; the observed
// maximum must stay at the cap while everyone is eventually admitted.
func TestAdmissionCap(t *testing.T) {
	s := New(Options{PoolWorkers: 2, MaxQueries: 3})
	var cur, peak, total atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.AdmitTenant(context.Background(), ""); err != nil {
				t.Error(err)
				return
			}
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			total.Add(1)
			s.ReleaseTenant("")
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Errorf("observed %d concurrent tickets, cap is 3", got)
	}
	if total.Load() != 24 {
		t.Errorf("admitted %d of 24", total.Load())
	}
	st := s.AdmissionStats()
	if st.Admitted != 24 || st.Running != 0 || st.Waiting != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
	if st.Queued == 0 {
		t.Error("24 arrivals over cap 3 should have queued some")
	}
}

// TestAdmissionFIFO asserts waiters are granted in arrival order.
func TestAdmissionFIFO(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 1})
	if _, _, err := s.AdmitTenant(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	const n = 6
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Serialize enqueue order: wait until waiter i is visibly queued
		// before starting waiter i+1.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.AdmitTenant(context.Background(), ""); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.ReleaseTenant("")
		}(i)
		deadline := time.Now().Add(2 * time.Second)
		for s.AdmissionStats().Waiting != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	s.ReleaseTenant("") // hand the ticket down the queue
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

// TestAdmissionWaitTime asserts a queued admit reports its wait and the
// queued flag, and an uncontended admit reports neither.
func TestAdmissionWaitTime(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 1})
	wait, queued, err := s.AdmitTenant(context.Background(), "")
	if err != nil || queued || wait != 0 {
		t.Fatalf("uncontended admit: wait=%v queued=%v err=%v", wait, queued, err)
	}
	const hold = 40 * time.Millisecond
	done := make(chan struct{})
	go func() {
		time.Sleep(hold)
		s.ReleaseTenant("")
		close(done)
	}()
	wait, queued, err = s.AdmitTenant(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !queued {
		t.Error("second admit should report queued")
	}
	if wait < hold/2 {
		t.Errorf("wait %v, expected about %v", wait, hold)
	}
	<-done
	if st := s.AdmissionStats(); st.WaitTime < hold/2 || st.Queued != 1 {
		t.Errorf("stats: %+v", st)
	}
	s.ReleaseTenant("")
}

// TestAdmitCancelledWhileQueued asserts a context death in the queue
// returns the cause, leaks no ticket, and keeps later waiters moving.
func TestAdmitCancelledWhileQueued(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 1})
	if _, _, err := s.AdmitTenant(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.AdmitTenant(ctx, "")
		errc <- err
	}()
	for s.AdmissionStats().Waiting != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("queued admit after cancel: %v, want context.Canceled", err)
	}
	if st := s.AdmissionStats(); st.Waiting != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st)
	}
	// The ticket must still cycle: release and re-admit immediately.
	s.ReleaseTenant("")
	if _, queued, err := s.AdmitTenant(context.Background(), ""); err != nil || queued {
		t.Fatalf("admission broken after queue cancellation: queued=%v err=%v", queued, err)
	}
	s.ReleaseTenant("")
}

// TestCapOneSerializes asserts cap=1 reduces the engine to the paper's
// one-query-at-a-time behaviour: no two ticket holders ever overlap.
func TestCapOneSerializes(t *testing.T) {
	s := New(Options{PoolWorkers: 4, MaxQueries: 1})
	var cur atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.AdmitTenant(context.Background(), ""); err != nil {
				t.Error(err)
				return
			}
			if c := cur.Add(1); c != 1 {
				t.Errorf("%d concurrent holders under cap=1", c)
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			s.ReleaseTenant("")
		}()
	}
	wg.Wait()
}

// countJob is a Runner over n units with per-slot exclusivity checks.
type countJob struct {
	n       int64
	slots   int
	next    atomic.Int64
	ran     atomic.Int64
	inSlot  []atomic.Bool
	overlap atomic.Bool
	trace   func(unit int64)
}

func newCountJob(n int64, slots int) *countJob {
	return &countJob{n: n, slots: slots, inSlot: make([]atomic.Bool, slots)}
}

func (j *countJob) Slots() int { return j.slots }

func (j *countJob) RunSlot(slot int) bool {
	u := j.next.Add(1) - 1
	if u >= j.n {
		return false
	}
	if !j.inSlot[slot].CompareAndSwap(false, true) {
		j.overlap.Store(true)
	}
	if j.trace != nil {
		j.trace(u)
	}
	time.Sleep(20 * time.Microsecond)
	j.inSlot[slot].Store(false)
	j.ran.Add(1)
	return true
}

// TestRunDrainsExactly asserts every unit runs exactly once and slots are
// never leased twice concurrently.
func TestRunDrainsExactly(t *testing.T) {
	s := New(Options{PoolWorkers: 4, MaxQueries: 8})
	j := newCountJob(500, 3)
	s.RunTenant(j, "")
	if j.ran.Load() != 500 {
		t.Errorf("ran %d units, want 500", j.ran.Load())
	}
	if j.overlap.Load() {
		t.Error("slot leased to two workers at once")
	}
}

// TestRoundRobinFairness runs two jobs through a single pool worker and
// asserts their units interleave: once both are active, strict round-robin
// never runs the same job three times in a row.
func TestRoundRobinFairness(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 8})
	var mu sync.Mutex
	var seq []int
	mkTrace := func(id int) func(int64) {
		return func(int64) {
			mu.Lock()
			seq = append(seq, id)
			mu.Unlock()
		}
	}
	a := newCountJob(50, 2)
	a.trace = mkTrace(0)
	b := newCountJob(50, 2)
	b.trace = mkTrace(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.RunTenant(a, "") }()
	go func() { defer wg.Done(); s.RunTenant(b, "") }()
	wg.Wait()
	if a.ran.Load() != 50 || b.ran.Load() != 50 {
		t.Fatalf("ran %d/%d units", a.ran.Load(), b.ran.Load())
	}
	// After the second job's first unit, no 3-run of one job may appear
	// (before that, only one job exists and runs alone legitimately).
	firstB := -1
	for i, id := range seq {
		if id == 1 {
			firstB = i
			break
		}
	}
	run := 0
	for i := firstB; i < len(seq)-1 && firstB >= 0; i++ {
		if seq[i] == seq[i+1] {
			run++
			if run >= 2 {
				t.Fatalf("job %d ran %d times consecutively at %d: not round-robin", seq[i], run+1, i)
			}
		} else {
			run = 0
		}
	}
}

// TestPoolIdlesToZero asserts the pool holds no goroutines once drained:
// workers are ephemeral, so an idle scheduler needs no Close.
func TestPoolIdlesToZero(t *testing.T) {
	s := New(Options{PoolWorkers: 4, MaxQueries: 8})
	for i := 0; i < 3; i++ {
		s.RunTenant(newCountJob(100, 4), "")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		w := s.workers
		s.mu.Unlock()
		if w == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers still alive after drain", w)
		}
		time.Sleep(time.Millisecond)
	}
}
