package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aqe/internal/server"
)

// request is one generated input: which statement, which binding from
// its pool, over which protocol.
type request struct {
	stmt    int
	binding int
	proto   proto
}

// sample is what the load generator learnt from one request.
type sample struct {
	req    request
	latMS  float64 // closed loop: request written -> end of response; open loop: from when it was due
	ttfrMS float64 // same origin -> first row
	lateMS float64 // open loop: how late the generator woke for this arrival
	rows   int
	bytes  int64 // bytes of the row-carrying frames / lines
	stats  server.WireStats
	ok     bool // answered, within the deadline, and equal to the oracle's reference
	traced bool
}

// clients is one client's connections: a binary-protocol connection and
// an HTTP client, both under one tenant.
type clients struct {
	e      *env
	tenant string
	bin    *binClient
	http   *ndjsonClient
}

func newClients(e *env, tenant string) (*clients, error) {
	c := &clients{e: e, tenant: tenant, http: newNDJSONClient(e.http)}
	if err := c.dial(); err != nil {
		return nil, err
	}
	for _, s := range e.stmts {
		if s.kind != kindExec {
			continue
		}
		// HTTP keeps prepared statements per tenant, not per connection.
		if _, err := c.http.do(server.Request{Tenant: tenant,
			SQL: "PREPARE " + s.name + " AS " + s.text}); err != nil {
			c.close()
			return nil, fmt.Errorf("prepare over http: %w", err)
		}
	}
	return c, nil
}

// dial (re)opens the binary connection and prepares the workload's
// prepared statements on it, each under its own name.
func (c *clients) dial() error {
	if c.bin != nil {
		c.bin.close()
	}
	bin, err := dialBin(c.e.bin, c.tenant)
	if err != nil {
		return err
	}
	c.bin = bin
	for _, s := range c.e.stmts {
		if s.kind == kindExec {
			if err := bin.prepare(s.name, s.text); err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
		}
	}
	return nil
}

func (c *clients) close() {
	c.bin.close()
	c.http.close()
}

// send issues one request under a deadline (0 = none) and returns the
// raw observation.
func (c *clients) send(r request, deadline time.Duration) (*response, error) {
	s := c.e.stmts[r.stmt]
	limit := int(deadline / time.Millisecond)
	if r.proto == protoHTTP {
		req := server.Request{Tenant: c.tenant, TimeoutMS: limit}
		switch s.kind {
		case kindTPCH:
			req.TPCH = s.tpch
		case kindExec:
			req.SQL = "EXECUTE " + s.name + " (" + strings.Join(s.pool[r.binding], ", ") + ")"
		default:
			req.SQL = s.sqlFor(r.binding)
		}
		return c.http.do(req)
	}
	var res *response
	var err error
	switch s.kind {
	case kindTPCH:
		res, err = c.bin.tpch(s.tpch, limit)
	case kindExec:
		res, err = c.bin.execute(s.name, s.pool[r.binding], limit)
	default:
		res, err = c.bin.query(s.sqlFor(r.binding), limit)
	}
	if err != nil {
		// A statement error leaves the connection usable, a broken
		// connection does not; a fresh one is right in both cases.
		if derr := c.dial(); derr != nil {
			return nil, fmt.Errorf("%w (and redial: %v)", err, derr)
		}
	}
	return res, err
}

// measure sends r, checks the response against the oracle and, when rec
// is set, records the request's spans. due is the origin latencies are
// taken from; the zero time means "when the request was written".
func (c *clients) measure(r request, due time.Time, rec *recorder) sample {
	s := c.e.stmts[r.stmt]
	res, err := c.send(r, requestDeadline)
	sm := sample{req: r, traced: rec != nil}
	if err != nil {
		fmt.Printf("# request failed: %s[%d] over %s: %v\n", s.name, r.binding, r.proto, err)
		return sm
	}
	origin := res.sent
	if !due.IsZero() {
		origin = due
	}
	sm.latMS = ms(res.done.Sub(origin))
	sm.ttfrMS = sm.latMS
	if !res.firstRows.IsZero() {
		sm.ttfrMS = ms(res.firstRows.Sub(origin))
	}
	sm.rows, sm.bytes, sm.stats = res.rows, res.rowBytes, res.stats
	sm.ok = res.latency() <= requestDeadline && s.refs[r.binding].matches(res, r.proto)
	if !sm.ok {
		fmt.Printf("# response rejected: %s[%d] over %s: %d rows in %.1f ms, reference has %d rows\n",
			s.name, r.binding, r.proto, res.rows, sm.latMS, s.refs[r.binding].Rows)
	}
	if rec != nil {
		recordRequest(rec, r, origin, res)
	}
	return sm
}

// recordRequest stores one wire request as spans: the request, the part
// before the first row with the server-reported durations under it, and
// the streaming part after it.
func recordRequest(rec *recorder, r request, origin time.Time, res *response) {
	id := rec.request()
	name := "wire." + r.proto.String()
	root := rec.add(name, -1, id, r.stmt, origin, res.done)
	first := res.firstRows
	if first.IsZero() {
		first = res.done
	}
	if origin.Before(res.sent) {
		rec.add("loadgen.queue", root, id, r.stmt, origin, res.sent)
	}
	ttfr := rec.add(name+".to_first_row", root, id, r.stmt, res.sent, first)
	rec.add(name+".stream", root, id, r.stmt, first, res.done)
	st := res.stats
	srv := rec.addReported("server.total", ttfr, id, r.stmt, res.sent, time.Duration(st.TotalNS))
	rec.addReported("sched.wait", srv, id, r.stmt, res.sent, time.Duration(st.WaitNS))
	rec.addReported("exec.translate", srv, id, r.stmt, res.sent, time.Duration(st.TranslateNS))
	rec.addReported("exec.compile", srv, id, r.stmt, res.sent, time.Duration(st.CompileNS))
	rec.addReported("exec.exec", srv, id, r.stmt, res.sent, time.Duration(st.ExecNS))
	rec.count(name+".requests", 1)
	rec.count(name+".rows", int64(res.rows))
	rec.count(name+".row_bytes", res.rowBytes)
}

// mix generates the requests of a closed loop, pass by pass: every
// (statement, protocol) of the workload once per pass, in seeded order.
// Bindings are not drawn independently but walked through a seeded
// permutation of each statement's pool, so every binding is used equally
// often and two runs differ in order, not in what they ask.
type mix struct {
	stmts  []*stmt
	rng    *rand.Rand
	protos func(*stmt) []proto
	perms  [][]int
	passes int
}

func newMix(stmts []*stmt, rng *rand.Rand, protos func(*stmt) []proto) *mix {
	m := &mix{stmts: stmts, rng: rng, protos: protos}
	for _, s := range stmts {
		m.perms = append(m.perms, rng.Perm(len(s.pool)))
	}
	return m
}

func (m *mix) next() []request {
	var reqs []request
	for i, s := range m.stmts {
		b := m.perms[i][m.passes%len(s.pool)]
		for _, p := range m.protos(s) {
			reqs = append(reqs, request{stmt: i, binding: b, proto: p})
		}
	}
	m.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	m.passes++
	return reqs
}

func ownProtos(s *stmt) []proto { return s.protos }

// passStat is one pass of a closed loop: how many requests, how long,
// how much process CPU.
type passStat struct {
	n    int
	wall time.Duration
	cpu  time.Duration
}

// closedLoop runs `passes` whole passes over one connection, the next
// request leaving only when the previous response has ended. The count is
// fixed and every statement is sent once per pass, so both sides of a
// comparison do the same work and every statement has the same weight in
// the samples whatever the speed of the program. limit (0 = none) is the
// safety valve: once that much time has passed no further pass starts, so
// that a host stalled to a fraction of its speed cannot carry a run past
// the driver's time limit; len(stats) then says how many passes ran. rec,
// when set, is handed to every other pass: the traced and untraced halves
// of one run give the tracing overhead.
func closedLoop(e *env, rng *rand.Rand, passes int, limit time.Duration, protos func(*stmt) []proto, rec *recorder) ([]sample, []passStat, error) {
	cl, err := newClients(e, "")
	if err != nil {
		return nil, nil, err
	}
	defer cl.close()
	var out []sample
	stats := make([]passStat, 0, passes)
	m := newMix(e.stmts, rng, protos)
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		if limit > 0 && pass > 0 && time.Since(t0) > limit {
			fmt.Printf("# cut short after %d of %d passes: %.1f s have passed\n", pass, passes, time.Since(t0).Seconds())
			break
		}
		var passRec *recorder
		if pass%2 == 0 {
			passRec = rec
		}
		reqs := m.next()
		start, cpu0 := time.Now(), cpuTime()
		for _, r := range reqs {
			out = append(out, cl.measure(r, time.Time{}, passRec))
		}
		stats = append(stats, passStat{n: len(reqs), wall: time.Since(start), cpu: cpuTime() - cpu0})
	}
	return out, stats, nil
}

// serviceResult is one phase of service_mixed.
type serviceResult struct {
	alpha []sample
	hog   []sample
	wall  time.Duration
}

// alphaConns is how many connections the open-loop tenant spreads over:
// nproc-1, which with the hog's one keeps the clients at nproc. On a
// 2-core host that is a single connection, so the per-tenant quota of one
// never holds a request back and sched.wait_* read 0 there.
func alphaConns(procs int) int { return max(procs-1, 1) }

// serviceLoad drives tenant alpha open loop — Poisson arrivals at
// openRate whether or not earlier requests have finished, each timed from
// when it was due — and, when withHog is set, tenant hog closed loop on
// one connection beside it.
func serviceLoad(e *env, rng *rand.Rand, seconds float64, withHog bool, rec *recorder) (serviceResult, error) {
	type arrival struct {
		due     time.Time
		binding int
		late    float64
		rec     *recorder // set on every other arrival, as in closedLoop
	}
	// A Poisson process seen over a window in which it produced exactly
	// rate x seconds arrivals: that many uniform instants, in order. The
	// fixed count keeps the offered load the same for every seed.
	offsets := make([]time.Duration, int(openRate*seconds))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	// Every binding of alpha's pool equally often, in seeded order.
	bindings := make([]int, len(offsets))
	for i := range bindings {
		bindings[i] = i % len(e.stmts[0].pool)
	}
	rng.Shuffle(len(bindings), func(i, j int) { bindings[i], bindings[j] = bindings[j], bindings[i] })

	conns := make([]*clients, alphaConns(e.procs))
	for i := range conns {
		c, err := newClients(e, "alpha")
		if err != nil {
			return serviceResult{}, err
		}
		defer c.close()
		conns[i] = c
	}
	var hog *clients
	if withHog {
		var err error
		if hog, err = newClients(e, "hog"); err != nil {
			return serviceResult{}, err
		}
		defer hog.close()
	}

	var (
		res  serviceResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	// Sized to the number of sends, so the dispatcher never waits for a
	// free connection: a slow server shows as latency, not as lateness.
	due := make(chan arrival, len(offsets))
	for _, c := range conns {
		wg.Add(1)
		go func(c *clients) {
			defer wg.Done()
			for a := range due {
				sm := c.measure(request{stmt: 0, binding: a.binding}, a.due, a.rec)
				sm.lateMS = a.late
				mu.Lock()
				res.alpha = append(res.alpha, sm)
				mu.Unlock()
			}
		}(c)
	}
	var hogWG sync.WaitGroup
	if withHog {
		hogWG.Add(1)
		go func() {
			defer hogWG.Done()
			for k := 0; !stop.Load(); k++ {
				sm := hog.measure(request{stmt: 1 + k%2}, time.Time{}, nil)
				res.hog = append(res.hog, sm) // read only after hogWG.Wait
			}
		}()
	}

	t0 := time.Now()
	for i, off := range offsets {
		at := t0.Add(off)
		time.Sleep(time.Until(at))
		a := arrival{due: at, binding: bindings[i], late: ms(time.Since(at))}
		if i%2 == 0 {
			a.rec = rec
		}
		due <- a
	}
	close(due)
	wg.Wait()
	res.wall = time.Since(t0)
	stop.Store(true)
	hogWG.Wait()
	return res, nil
}
