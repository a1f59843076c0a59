package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"aqe"
	"aqe/internal/server"
	"aqe/internal/storage"
	"aqe/internal/tpch"
)

// env is one set-up of a workload: generated data, the engine under the
// workload's configuration, an in-process server on loopback, the
// statements with their oracle references, and how long each part took.
type env struct {
	w     *workload
	procs int
	sf    float64
	cat   *storage.Catalog
	db    *aqe.DB
	srv   *server.Server
	bin   string // binary-protocol address
	http  string // HTTP address
	stmts []*stmt

	genS   float64 // tpch.Gen
	checkS float64 // the Volcano oracle pass
	setupS float64 // everything before the first timed request

	lns     []net.Listener
	servers chan error // one value per listener goroutine when it returns
}

// poolSeed generates the binding pools. It is a constant: every run asks
// from the same pools, and the run's seed decides only the order of
// statements, the order of bindings and the arrival times.
const poolSeed = 20180416

// setUp performs everything that precedes the first timed request.
func setUp(w *workload, smoke bool, procs int) (*env, error) {
	t0 := time.Now()
	e := &env{w: w, procs: procs, servers: make(chan error, 2)}
	sf := w.sf
	if smoke {
		sf = w.smokeSF
	}
	e.sf = sf
	e.cat = tpch.Gen(sf)
	e.genS = time.Since(t0).Seconds()

	e.db = aqe.Open(w.dbOptions(procs))
	for _, name := range e.cat.Names() {
		e.db.Register(e.cat.Table(name))
	}
	e.srv = server.New(server.Options{DB: e.db, ChunkRows: 256})
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		binLn.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.lns = []net.Listener{binLn, httpLn}
	e.bin, e.http = binLn.Addr().String(), httpLn.Addr().String()
	go func() { e.servers <- e.srv.ServeBinary(binLn) }()
	go func() { e.servers <- e.srv.ServeHTTP(httpLn) }()

	e.stmts = w.stmts(e.cat, rand.New(rand.NewSource(poolSeed)))
	tc := time.Now()
	if err := fillRefs(e.cat, e.stmts, procs); err != nil {
		e.close()
		return nil, err
	}
	e.checkS = time.Since(tc).Seconds()

	if w.warmPasses > 0 {
		if err := e.warmUp(); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// warmUp sends the workload's untimed passes: every statement over each
// of its protocols, warmPasses times, without a deadline.
func (e *env) warmUp() error {
	cl, err := newClients(e, "")
	if err != nil {
		return err
	}
	defer cl.close()
	for pass := 0; pass < e.w.warmPasses; pass++ {
		for i, s := range e.stmts {
			for _, p := range s.protos {
				if _, err := cl.send(request{stmt: i, binding: pass % len(s.pool), proto: p}, 0); err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
			}
		}
	}
	return nil
}

// close drains the server and waits for both listeners' goroutines.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // in-flight work is the benchmark's own and already finished
	for _, ln := range e.lns {
		ln.Close() // a listener whose Serve had not registered yet is not the server's to close
	}
	<-e.servers
	<-e.servers
}
