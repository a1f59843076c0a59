// Package sched is the engine-level query scheduler: it multiplexes every
// in-flight query of an engine over one shared worker pool and gates query
// admission behind a FIFO queue with a concurrency cap.
//
// The paper's executor assumes one query owning its morsel workers; a
// production engine serving concurrent traffic cannot spawn opts.Workers
// goroutines per query — N queries would oversubscribe the machine N-fold
// and the Go scheduler, not the engine, would decide who runs. Instead the
// pool holds at most PoolWorkers workers (sized to GOMAXPROCS), each of
// which repeatedly picks a runnable job by weighted fair share (stride
// scheduling over per-tenant virtual time, round-robin among ties),
// leases one of the job's slots, executes exactly one unit of work (a
// morsel, or one breaker-finalize partition), releases the slot, and
// re-picks. Fairness is therefore morsel-granular: a short query never
// waits behind a long scan for more than one morsel per worker — or, when
// the adaptive controller compiles a pipeline in the slot its morsel ran
// in, for that compilation, which holds the slot like any unit of work.
//
// Workers are ephemeral: a Run spawns workers while fewer than the cap are
// alive, and a worker exits when no job has a runnable slot. An idle
// engine holds no goroutines and needs no Close.
package sched

import (
	"container/list"
	"context"
	"runtime"
	"sync"
	"time"
)

// Runner is one schedulable parallel phase — a pipeline's morsel loop or
// a pipeline-breaker finalization. Slots bounds how many pool workers may
// execute it at once (the per-query worker grant); RunSlot executes one
// unit of work in the exclusively leased slot and reports false when the
// phase has no more work (the call did nothing).
type Runner interface {
	Slots() int
	RunSlot(slot int) bool
}

// Options configures a Scheduler.
type Options struct {
	// PoolWorkers caps concurrently running pool workers.
	PoolWorkers int
	// MaxQueries caps concurrently admitted queries; arrivals beyond the
	// cap wait in FIFO order.
	MaxQueries int
	// MaxPerTenant additionally caps concurrently admitted queries per
	// tenant (0 = no per-tenant cap). A tenant at its cap queues even
	// while global capacity is free, and its waiters never block other
	// tenants: admission wakes the oldest waiter whose tenant has
	// headroom, skipping capped ones.
	MaxPerTenant int
	// Weights assigns per-tenant fair-share weights for worker picking
	// (default 1): under contention a tenant's jobs receive pool workers
	// in proportion to its weight instead of pure round-robin.
	Weights map[string]int
}

// TenantStats is the per-tenant slice of the admission counters.
type TenantStats struct {
	Admitted int64
	Queued   int64
	WaitTime time.Duration
	Running  int // tickets currently held by the tenant
	Waiting  int // tenant queries in the admission queue
}

// Stats is a snapshot of the admission counters.
type Stats struct {
	Admitted int64         // queries granted a ticket so far
	Queued   int64         // of those, how many had to wait
	WaitTime time.Duration // total time spent waiting for admission
	Running  int           // tickets currently held
	Waiting  int           // queries currently in the admission queue
	// Tenants breaks the counters down by tenant; present only when any
	// query was admitted under a non-empty tenant name.
	Tenants map[string]TenantStats
}

// Scheduler is the shared worker pool plus the admission gate. One per
// engine; safe for concurrent use.
type Scheduler struct {
	mu      sync.Mutex
	jobs    []*job             // active jobs, picked weighted-fair-share
	rr      int                // tie-break cursor into jobs
	workers int                // live pool workers
	tActive map[string]int     // pool workers currently leased, by tenant
	vtime   map[string]float64 // cumulative weighted service, by tenant
	poolMax int
	weights map[string]int

	amu       sync.Mutex
	capacity  int
	perTenant int
	running   int
	tRunning  map[string]int
	waiters   *list.List // of *waiter, front = oldest
	admitted  int64
	queued    int64
	waitNS    int64
	tenants   map[string]*tenantCounters
}

// tenantCounters accumulates one tenant's admission history.
type tenantCounters struct {
	admitted int64
	queued   int64
	waitNS   int64
}

// waiter is one queued admission request.
type waiter struct {
	ch     chan struct{}
	tenant string
}

// job tracks one Runner's pool state: free slot ids, active executors,
// and the completion signal Run blocks on.
type job struct {
	r        Runner
	tenant   string
	weight   int
	free     []int // stack of free slot ids (top = next lease)
	active   int
	drained  bool
	signaled bool
	done     chan struct{}
}

// New creates a scheduler. PoolWorkers and MaxQueries must be >= 1.
func New(o Options) *Scheduler {
	if o.PoolWorkers < 1 {
		o.PoolWorkers = 1
	}
	if o.MaxQueries < 1 {
		o.MaxQueries = 1
	}
	weights := make(map[string]int, len(o.Weights))
	for t, w := range o.Weights {
		weights[t] = w
	}
	return &Scheduler{poolMax: o.PoolWorkers, capacity: o.MaxQueries,
		perTenant: o.MaxPerTenant, weights: weights,
		tActive:  make(map[string]int),
		vtime:    make(map[string]float64),
		tRunning: make(map[string]int),
		tenants:  make(map[string]*tenantCounters),
		waiters:  list.New()}
}

// weightOf resolves a tenant's fair-share weight (default 1).
func (s *Scheduler) weightOf(tenant string) int {
	if w := s.weights[tenant]; w > 0 {
		return w
	}
	return 1
}

// PoolSize returns the worker-pool cap.
func (s *Scheduler) PoolSize() int { return s.poolMax }

// Admit blocks until the caller holds one of the MaxQueries execution
// tickets (FIFO among waiters) or ctx is cancelled. It reports how long
// the caller waited and whether it had to queue at all. On error the
// caller holds no ticket and must not call Release.
func (s *Scheduler) Admit(ctx context.Context) (wait time.Duration, queuedQ bool, err error) {
	return s.AdmitTenant(ctx, "")
}

// AdmitTenant is Admit under a tenant identity: the ticket additionally
// counts against the tenant's MaxPerTenant quota, and the wait (if any)
// is charged to the tenant's admission counters. Admission stays FIFO
// among waiters whose tenants have headroom; a capped tenant's waiters
// are skipped without blocking younger waiters of other tenants.
func (s *Scheduler) AdmitTenant(ctx context.Context, tenant string) (wait time.Duration, queuedQ bool, err error) {
	s.amu.Lock()
	if s.canAdmitLocked(tenant) && !s.eligibleWaiterLocked() {
		s.grantLocked(tenant)
		s.amu.Unlock()
		return 0, false, nil
	}
	w := &waiter{ch: make(chan struct{}), tenant: tenant}
	el := s.waiters.PushBack(w)
	s.queued++
	s.tcLocked(tenant).queued++
	s.amu.Unlock()
	t0 := time.Now()
	select {
	case <-w.ch:
		// ReleaseTenant granted us the freed slot; all counters were
		// already transferred under its lock.
	case <-ctx.Done():
		s.amu.Lock()
		select {
		case <-w.ch:
			// The grant raced the cancellation; keep the ticket. The
			// caller's context is dead, so the query will cancel on its
			// first preemption check and release the ticket normally.
		default:
			s.waiters.Remove(el)
			wait = time.Since(t0)
			s.waitNS += int64(wait)
			s.tcLocked(tenant).waitNS += int64(wait)
			s.amu.Unlock()
			return wait, true, context.Cause(ctx)
		}
		s.amu.Unlock()
	}
	wait = time.Since(t0)
	s.amu.Lock()
	s.waitNS += int64(wait)
	s.tcLocked(tenant).waitNS += int64(wait)
	s.amu.Unlock()
	return wait, true, nil
}

// canAdmitLocked reports whether a tenant has both global and per-tenant
// headroom for one more ticket.
func (s *Scheduler) canAdmitLocked(tenant string) bool {
	if s.running >= s.capacity {
		return false
	}
	return s.perTenant <= 0 || tenant == "" || s.tRunning[tenant] < s.perTenant
}

// eligibleWaiterLocked reports whether any queued waiter could be granted
// a ticket right now; a fresh arrival must not overtake it.
func (s *Scheduler) eligibleWaiterLocked() bool {
	for el := s.waiters.Front(); el != nil; el = el.Next() {
		if s.canAdmitLocked(el.Value.(*waiter).tenant) {
			return true
		}
	}
	return false
}

// grantLocked hands a ticket to tenant, taking global and per-tenant
// slots and counting the admission.
func (s *Scheduler) grantLocked(tenant string) {
	s.running++
	s.admitted++
	tc := s.tcLocked(tenant)
	tc.admitted++
	s.tRunning[tenant]++
}

// tcLocked returns (creating if needed) tenant's counter record.
func (s *Scheduler) tcLocked(tenant string) *tenantCounters {
	tc := s.tenants[tenant]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[tenant] = tc
	}
	return tc
}

// Release returns a ticket. If an eligible query is waiting, its slot is
// granted before the lock drops so admission order is preserved.
func (s *Scheduler) Release() { s.ReleaseTenant("") }

// ReleaseTenant returns a ticket held under a tenant identity and wakes
// the oldest waiter (if any) whose tenant now has headroom. Unlike a
// direct hand-over, the freed slot is re-counted through grantLocked so
// per-tenant occupancy moves from the releasing tenant to the woken one.
func (s *Scheduler) ReleaseTenant(tenant string) {
	s.amu.Lock()
	s.running--
	if s.tRunning[tenant] > 0 {
		s.tRunning[tenant]--
	}
	for el := s.waiters.Front(); el != nil; el = el.Next() {
		w := el.Value.(*waiter)
		if !s.canAdmitLocked(w.tenant) {
			continue
		}
		s.waiters.Remove(el)
		s.grantLocked(w.tenant)
		close(w.ch)
		break
	}
	s.amu.Unlock()
}

// AdmissionStats snapshots the admission counters.
func (s *Scheduler) AdmissionStats() Stats {
	s.amu.Lock()
	defer s.amu.Unlock()
	st := Stats{Admitted: s.admitted, Queued: s.queued,
		WaitTime: time.Duration(s.waitNS),
		Running:  s.running, Waiting: s.waiters.Len()}
	if len(s.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(s.tenants))
		for t, tc := range s.tenants {
			st.Tenants[t] = TenantStats{Admitted: tc.admitted,
				Queued: tc.queued, WaitTime: time.Duration(tc.waitNS),
				Running: s.tRunning[t]}
		}
		for el := s.waiters.Front(); el != nil; el = el.Next() {
			w := el.Value.(*waiter)
			ts := st.Tenants[w.tenant]
			ts.Waiting++
			st.Tenants[w.tenant] = ts
		}
	}
	return st
}

// Run schedules r over the pool and blocks until it is drained and every
// executor has returned. Callers run on their own goroutine (a query's
// coordinator); only r's slots execute on pool workers.
func (s *Scheduler) Run(r Runner) { s.RunTenant(r, "") }

// RunTenant is Run under a tenant identity: pool workers are shared by
// weighted fair-share, so under contention the tenant's phases receive
// workers in proportion to its configured weight.
func (s *Scheduler) RunTenant(r Runner, tenant string) { <-s.StartTenant(r, tenant) }

// StartTenant is RunTenant without the wait: it schedules r and returns
// the channel that closes once r is drained and every executor has
// returned. The coordinator of a streaming query consumes finished output
// on its own goroutine while the pool runs the final pipeline.
func (s *Scheduler) StartTenant(r Runner, tenant string) <-chan struct{} {
	n := r.Slots()
	if n < 1 {
		n = 1
	}
	j := &job{r: r, tenant: tenant, weight: s.weightOf(tenant),
		done: make(chan struct{})}
	for i := n - 1; i >= 0; i-- {
		j.free = append(j.free, i) // top of stack = slot 0
	}
	s.mu.Lock()
	if len(s.jobs) == 0 {
		// Pool going from idle to busy: rebase virtual time so the
		// floats never grow without bound over a server's lifetime.
		clear(s.vtime)
	} else {
		// A tenant returning from idle re-enters at the current virtual
		// time floor instead of the low vtime it parked at — otherwise
		// its accumulated "credit" would let it monopolize the pool
		// until it caught up with tenants that kept running.
		floor := s.vtime[s.jobs[0].tenant]
		for _, other := range s.jobs[1:] {
			if v := s.vtime[other.tenant]; v < floor {
				floor = v
			}
		}
		if s.vtime[tenant] < floor {
			s.vtime[tenant] = floor
		}
	}
	s.jobs = append(s.jobs, j)
	spawn := s.poolMax - s.workers
	if spawn > n {
		spawn = n
	}
	s.workers += spawn
	s.mu.Unlock()
	for i := 0; i < spawn; i++ {
		go s.worker()
	}
	return j.done
}

// worker is the pool loop: pick the runnable job of the least-served
// tenant, run one unit, release the slot, repeat; exit when nothing
// anywhere is runnable.
func (s *Scheduler) worker() {
	s.mu.Lock()
	for {
		j, slot := s.pickLocked()
		if j == nil {
			s.workers--
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		more := j.r.RunSlot(slot)
		// Yield between units: a pool worker is a CPU-bound goroutine
		// that otherwise holds its OS thread for a full preemption
		// quantum (~10ms), starving just-woken query coordinators and
		// connection handlers whenever GOMAXPROCS is small. A morsel is
		// orders of magnitude longer than the yield, so throughput is
		// unaffected; tail latency under saturation improves sharply.
		runtime.Gosched()
		s.mu.Lock()
		j.free = append(j.free, slot)
		j.active--
		s.tActive[j.tenant]--
		if !more && !j.drained {
			j.drained = true
			s.removeLocked(j)
		}
		if j.drained && j.active == 0 && !j.signaled {
			j.signaled = true
			close(j.done)
		}
	}
}

// pickLocked leases a slot from a runnable job of the tenant with the
// lowest virtual time, or returns nil when no job can use a worker.
//
// Fairness is stride scheduling over cumulative service: each lease
// advances the granted tenant's virtual time by 1/weight, so over any
// contended window tenants receive work units in proportion to their
// weights. Cumulative accounting matters because instantaneous shares
// cannot express weights on a small pool — with one worker the leased
// counts are always 0 or 1 at pick time and every policy collapses to
// alternation, whereas virtual time makes a weight-4 tenant win four
// consecutive leases before a weight-1 tenant wins one. Ties resolve
// round-robin from the rr cursor, so a single-tenant (or untenanted)
// workload degenerates to the original rotation and keeps its
// morsel-granular fairness.
func (s *Scheduler) pickLocked() (*job, int) {
	n := len(s.jobs)
	var best *job
	bestIdx := -1
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		j := s.jobs[idx]
		if j.drained || len(j.free) == 0 {
			continue
		}
		if best == nil || s.vtime[j.tenant] < s.vtime[best.tenant] {
			best, bestIdx = j, idx
		}
	}
	if best == nil {
		return nil, 0
	}
	s.rr = (bestIdx + 1) % n
	slot := best.free[len(best.free)-1]
	best.free = best.free[:len(best.free)-1]
	best.active++
	s.tActive[best.tenant]++
	s.vtime[best.tenant] += 1 / float64(best.weight)
	return best, slot
}

// removeLocked drops a drained job from the pick list, keeping the
// round-robin cursor stable relative to the remaining jobs.
func (s *Scheduler) removeLocked(j *job) {
	for i, x := range s.jobs {
		if x == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			if s.rr > i {
				s.rr--
			}
			break
		}
	}
	if len(s.jobs) == 0 {
		s.rr = 0
	} else {
		s.rr %= len(s.jobs)
	}
}
