package sched

import (
	"context"
	"testing"
	"time"
)

// admitAsync starts an AdmitTenant on its own goroutine and returns a
// channel that yields its error once admission resolves.
func admitAsync(s *Scheduler, ctx context.Context, tenant string) chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := s.AdmitTenant(ctx, tenant)
		done <- err
	}()
	return done
}

func mustAdmit(t *testing.T, s *Scheduler, tenant string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, _, err := s.AdmitTenant(ctx, tenant); err != nil {
		t.Fatalf("admit %q: %v", tenant, err)
	}
}

func settled(done chan error) bool {
	select {
	case <-done:
		return true
	case <-time.After(50 * time.Millisecond):
		return false
	}
}

func TestPerTenantQuota(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 4, MaxPerTenant: 1})
	mustAdmit(t, s, "a")
	// Tenant a is at its quota: a second admission queues despite three
	// free global slots; tenant b sails through.
	blocked := admitAsync(s, context.Background(), "a")
	if settled(blocked) {
		t.Fatal("tenant over quota was admitted")
	}
	mustAdmit(t, s, "b")
	st := s.AdmissionStats()
	if st.Running != 2 || st.Waiting != 1 {
		t.Fatalf("running=%d waiting=%d, want 2/1", st.Running, st.Waiting)
	}
	if ts := st.Tenants["a"]; ts.Running != 1 || ts.Waiting != 1 {
		t.Fatalf("tenant a running=%d waiting=%d, want 1/1", ts.Running, ts.Waiting)
	}
	// Releasing a's ticket admits a's waiter.
	s.ReleaseTenant("a")
	if err := <-blocked; err != nil {
		t.Fatalf("queued admission failed: %v", err)
	}
	s.ReleaseTenant("a")
	s.ReleaseTenant("b")
	if st := s.AdmissionStats(); st.Running != 0 {
		t.Fatalf("running=%d after releases, want 0", st.Running)
	}
}

func TestQuotaWaiterDoesNotBlockOtherTenants(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 2, MaxPerTenant: 1})
	mustAdmit(t, s, "a")
	mustAdmit(t, s, "b")
	// a2 queues first (quota + capacity), c queues behind it (capacity).
	a2 := admitAsync(s, context.Background(), "a")
	time.Sleep(10 * time.Millisecond) // order the two waiters
	c := admitAsync(s, context.Background(), "c")
	if settled(a2) || settled(c) {
		t.Fatal("admission over capacity")
	}
	// b's release frees one slot. a2 is older but a is still at its
	// quota, so the slot must skip to c instead of convoying behind a.
	s.ReleaseTenant("b")
	if err := <-c; err != nil {
		t.Fatalf("tenant c admission failed: %v", err)
	}
	if settled(a2) {
		t.Fatal("tenant a admitted while over quota")
	}
	// a's own release finally admits a2.
	s.ReleaseTenant("a")
	if err := <-a2; err != nil {
		t.Fatalf("tenant a admission failed: %v", err)
	}
	s.ReleaseTenant("a")
	s.ReleaseTenant("c")
}

func TestAdmitTenantCancelWhileQueued(t *testing.T) {
	s := New(Options{PoolWorkers: 1, MaxQueries: 1})
	mustAdmit(t, s, "a")
	ctx, cancel := context.WithCancel(context.Background())
	blocked := admitAsync(s, ctx, "b")
	cancel()
	if err := <-blocked; err == nil {
		t.Fatal("cancelled admission returned nil error")
	}
	// The cancelled waiter must have left the queue: the next release
	// returns the slot instead of granting a dead waiter.
	s.ReleaseTenant("a")
	if st := s.AdmissionStats(); st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("running=%d waiting=%d after cancel+release, want 0/0", st.Running, st.Waiting)
	}
	mustAdmit(t, s, "c")
	s.ReleaseTenant("c")
}

// slotRunner leases slots without doing work, so pickLocked's fair-share
// choice can be observed deterministically.
type slotRunner struct{ n int }

func (r *slotRunner) Slots() int       { return r.n }
func (r *slotRunner) RunSlot(int) bool { return true }

func TestPickLockedWeightedFairShare(t *testing.T) {
	s := New(Options{PoolWorkers: 8, MaxQueries: 8,
		Weights: map[string]int{"heavy": 3, "light": 1}})
	mk := func(tenant string) *job {
		j := &job{r: &slotRunner{n: 8}, tenant: tenant, weight: s.weightOf(tenant),
			done: make(chan struct{})}
		for i := 7; i >= 0; i-- {
			j.free = append(j.free, i)
		}
		return j
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs = []*job{mk("heavy"), mk("light")}
	// Lease 8 workers: fair share by weight 3:1 gives heavy 6, light 2.
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		j, _ := s.pickLocked()
		if j == nil {
			t.Fatal("no job picked")
		}
		counts[j.tenant]++
	}
	if counts["heavy"] != 6 || counts["light"] != 2 {
		t.Fatalf("leases heavy=%d light=%d, want 6/2", counts["heavy"], counts["light"])
	}
}

func TestPickLockedUntenantedRoundRobin(t *testing.T) {
	// All-default tenants degenerate to the original round-robin: equal
	// shares, rotating start.
	s := New(Options{PoolWorkers: 4, MaxQueries: 4})
	mk := func() *job {
		j := &job{r: &slotRunner{n: 4}, weight: 1, done: make(chan struct{})}
		for i := 3; i >= 0; i-- {
			j.free = append(j.free, i)
		}
		return j
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b := mk(), mk()
	s.jobs = []*job{a, b}
	j1, _ := s.pickLocked()
	j2, _ := s.pickLocked()
	if j1 == j2 {
		t.Fatal("round-robin did not alternate between equal jobs")
	}
}

func TestRunTenantCompletes(t *testing.T) {
	// End-to-end: two tenants' runners drain over the shared pool and
	// both jobs leave the pick list.
	s := New(Options{PoolWorkers: 2, MaxQueries: 2,
		Weights: map[string]int{"a": 2}})
	jobs := map[string]*countJob{"a": newCountJob(64, 2), "b": newCountJob(64, 2)}
	done := make(chan string, 2)
	for tenant, j := range jobs {
		go func(tenant string, j *countJob) {
			s.RunTenant(j, tenant)
			done <- tenant
		}(tenant, j)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("RunTenant did not complete")
		}
	}
	for tenant, j := range jobs {
		if j.ran.Load() != 64 {
			t.Fatalf("tenant %q ran %d/64 units", tenant, j.ran.Load())
		}
		if j.overlap.Load() {
			t.Fatalf("tenant %q had overlapping slot leases", tenant)
		}
	}
	s.mu.Lock()
	if len(s.jobs) != 0 {
		t.Fatalf("%d drained jobs still on the pick list", len(s.jobs))
	}
	s.mu.Unlock()
}
