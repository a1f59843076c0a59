package exec

import "sync"

// compilePool is the engine-wide background compilation service. The
// adaptive controller used to spawn one goroutine per compilation, which
// meant N concurrent adaptive queries could run N compilations at once —
// exactly the compile-thrash production engines avoid. The pool bounds
// concurrent compilations engine-wide (compileWorkers); excess requests
// queue in FIFO order, so a hot query's upgrade is never cancelled, only
// delayed.
//
// Workers are ephemeral: a submission spawns a worker if fewer than max
// are running, and a worker exits when the queue drains. The engine
// therefore needs no Close — an idle engine holds no goroutines.
type compilePool struct {
	mu      sync.Mutex
	queue   []func()
	workers int
	max     int
}

func newCompilePool(max int) *compilePool { return &compilePool{max: max} }

// submit enqueues a compilation job. It never blocks: the queue is
// unbounded (jobs are small; the bound that matters is on concurrency).
func (p *compilePool) submit(job func()) {
	p.mu.Lock()
	p.queue = append(p.queue, job)
	spawn := p.workers < p.max
	if spawn {
		p.workers++
	}
	p.mu.Unlock()
	if spawn {
		go p.drain()
	}
}

// drain runs queued jobs until none remain, then exits.
func (p *compilePool) drain() {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.workers--
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
}
