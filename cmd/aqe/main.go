// Command aqe is an interactive SQL shell over TPC-H data.
//
//	aqe -sf 0.05 -mode adaptive -maxq 4
//	aqe> SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag
//	aqe> PREPARE big AS SELECT count(*) FROM orders WHERE o_totalprice > $1
//	aqe> EXECUTE big (150000.00)
//	aqe> \bg SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey
//	aqe> \jobs
//	aqe> \cancel 1
//
// Foreground statements and background jobs (\bg) share one engine: the
// scheduler interleaves their morsels on a common worker pool, queueing
// arrivals beyond -maxq in FIFO order.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"aqe"
)

var (
	sf      = flag.Float64("sf", 0.01, "TPC-H scale factor")
	mode    = flag.String("mode", "adaptive", "adaptive|bytecode|native|optimized|ir-interp")
	wrk     = flag.Int("workers", 4, "per-query worker slots")
	maxq    = flag.Int("maxq", 8, "max concurrently executing queries (admission cap)")
	timeout = flag.Duration("timeout", 0, "per-statement deadline (0 = none)")
)

// job is one background statement launched with \bg.
type job struct {
	id     int
	sql    string
	cancel context.CancelFunc
	done   chan struct{}
	res    *aqe.Result
	err    error
	start  time.Time
}

func main() {
	flag.Parse()
	m, err := aqe.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqe:", err)
		os.Exit(2)
	}
	db := aqe.Open(aqe.Options{Workers: *wrk, Mode: m, MaxConcurrent: *maxq})
	sess := db.NewSession("")
	fmt.Printf("loading TPC-H at SF %g...\n", *sf)
	db.LoadTPCH(*sf)
	fmt.Printf("ready (%s mode, admission cap %d). Tables: %s\n", *mode, *maxq,
		strings.Join(db.Catalog().Names(), ", "))
	fmt.Println(`type SQL (PREPARE name AS ... / EXECUTE name (args) / DEALLOCATE name`)
	fmt.Println(`manage prepared statements), "\q" to quit, "\tpch N" to run TPC-H query N,`)
	fmt.Println(`"\prepared" to list prepared statements,`)
	fmt.Println(`"\bg SQL" to run in background, "\jobs" to list, "\cancel N" to stop one`)

	var mu sync.Mutex
	jobs := map[int]*job{}
	nextID := 1

	stmtCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.WithCancel(context.Background())
	}

	// reap prints results of background jobs that finished since the last
	// prompt and removes them from the table.
	reap := func() {
		mu.Lock()
		defer mu.Unlock()
		for id, j := range jobs {
			select {
			case <-j.done:
				fmt.Printf("-- job %d done (%s):\n", id, truncate(j.sql, 50))
				show(j.res, j.err)
				delete(jobs, id)
			default:
			}
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		reap()
		fmt.Print("aqe> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\prepared`:
			names := sess.Prepared()
			if len(names) == 0 {
				fmt.Println("no prepared statements")
			}
			for _, n := range names {
				fmt.Println("  " + n)
			}
		case line == `\jobs`:
			mu.Lock()
			if len(jobs) == 0 {
				fmt.Println("no background jobs")
			}
			for id, j := range jobs {
				state := "running"
				select {
				case <-j.done:
					state = "finished"
				default:
				}
				fmt.Printf("  job %d [%s, %v]: %s\n", id, state,
					time.Since(j.start).Round(time.Millisecond), truncate(j.sql, 60))
			}
			mu.Unlock()
		case strings.HasPrefix(line, `\cancel `):
			var id int
			fmt.Sscanf(line[8:], "%d", &id)
			mu.Lock()
			j := jobs[id]
			mu.Unlock()
			if j == nil {
				fmt.Printf("no job %d\n", id)
				continue
			}
			j.cancel()
			<-j.done
			fmt.Printf("job %d cancelled: %v\n", id, j.err)
			mu.Lock()
			delete(jobs, id)
			mu.Unlock()
		case strings.HasPrefix(line, `\bg `):
			sql := strings.TrimSpace(line[4:])
			ctx, cancel := stmtCtx()
			j := &job{id: nextID, sql: sql, cancel: cancel,
				done: make(chan struct{}), start: time.Now()}
			nextID++
			mu.Lock()
			jobs[j.id] = j
			mu.Unlock()
			go func() {
				defer cancel()
				j.res, j.err = sess.Exec(ctx, sql)
				close(j.done)
			}()
			fmt.Printf("job %d started\n", j.id)
		case strings.HasPrefix(line, `\tpch `):
			var n int
			fmt.Sscanf(line[6:], "%d", &n)
			if n < 1 || n > 22 {
				fmt.Println("tpch wants 1..22")
				continue
			}
			ctx, cancel := stmtCtx()
			res, err := db.ExecCtx(ctx, db.TPCHQuery(n))
			cancel()
			show(res, err)
		default:
			ctx, cancel := stmtCtx()
			res, err := sess.Exec(ctx, line)
			cancel()
			show(res, err)
		}
	}
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

func show(res *aqe.Result, err error) {
	if err != nil {
		fmt.Println("error:", err)
		if res != nil && res.Stats.Cancelled {
			fmt.Printf("(cancelled after %v)\n", res.Stats.Total)
		}
		return
	}
	if len(res.Cols) == 0 && len(res.Rows) == 0 {
		fmt.Println("ok")
		return
	}
	fmt.Print(aqe.FormatRows(res, 25))
	fmt.Printf("(%d rows; codegen %v, exec %v, tiers %v)\n",
		len(res.Rows), res.Stats.Codegen, res.Stats.Exec, res.Stats.FinalLevels)
	if res.Stats.Queued {
		fmt.Printf("(queued %v at the admission gate)\n", res.Stats.WaitTime)
	}
	if res.Stats.TuplesPruned > 0 {
		fmt.Printf("(zone maps: %d blocks / %d tuples pruned, %.1f%% of prunable scans)\n",
			res.Stats.BlocksPruned, res.Stats.TuplesPruned,
			100*float64(res.Stats.TuplesPruned)/float64(res.Stats.PrunableTuples))
	}
	if res.Stats.DictRewrites > 0 {
		fmt.Printf("(dictionary: %d string op(s) rewritten to codes, %d hit, %d string block(s) pruned)\n",
			res.Stats.DictRewrites, res.Stats.DictHits, res.Stats.StringBlocksPruned)
	}
}
