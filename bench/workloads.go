package main

import (
	"embed"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"aqe"
	"aqe/internal/storage"
)

//go:embed sql/*.sql
var sqlFS embed.FS

func mustSQL(name string) string {
	b, err := sqlFS.ReadFile("sql/" + name + ".sql")
	if err != nil {
		panic(err)
	}
	return strings.TrimSpace(string(b))
}

// poolSize is the number of bindings a statement draws from: enough that
// literals vary, few enough that the oracle runs every one of them in
// set-up. The large-result statements take streamPoolSize, because the
// oracle formats every row of every binding.
const (
	poolSize       = 16
	streamPoolSize = 4
)

// requestDeadline is the per-request limit of the timed part, sent with
// the request and checked by the client; a response later than this counts
// as failed. The slowest statement (Q21 cold at SF 0.1) takes about
// 0.3 s on a quiet 2-core host; on a shared one, stalls of several times
// that were seen, and a failed request voids the run.
const requestDeadline = 5 * time.Second

type stmtKind int

const (
	kindQuery stmtKind = iota // SQL text with the literals written in (MsgQuery / "sql")
	kindTPCH                  // a built-in TPC-H plan by number (MsgTPCH / "tpch")
	kindExec                  // EXECUTE of the statement, prepared under its name, with bindings
)

// proto is the wire protocol a request uses.
type proto int

const (
	protoBinary proto = iota
	protoHTTP
)

func (p proto) String() string {
	if p == protoHTTP {
		return "http"
	}
	return "binary"
}

// stmt is one distinct statement of a workload; requests differ in the
// binding they pick from its pool.
type stmt struct {
	name   string
	kind   stmtKind
	text   string     // SQL with $n placeholders (kindQuery, kindExec)
	tpch   int        // query number (kindTPCH)
	pool   [][]string // bindings as SQL literals; one empty binding for kindTPCH
	protos []proto    // the protocols a timed pass sends it over
	refs   []ref      // oracle reference per binding, filled in set-up
}

// sqlFor writes binding b into the statement's text.
func (s *stmt) sqlFor(b int) string {
	out := s.text
	args := s.pool[b]
	for n := len(args); n >= 1; n-- { // $10 before $1
		out = strings.ReplaceAll(out, fmt.Sprintf("$%d", n), args[n-1])
	}
	return out
}

// workload is one set of inputs and the engine configuration it runs
// under. Everything a workload varies is here; the rest is the fixed
// conditions of conditions().
type workload struct {
	name string
	why  string
	sf   float64
	// smokeSF replaces sf under -smoke (the test scale).
	smokeSF  float64
	cacheOff bool // plan cache disabled: every request pays translate + compile
	// warmPasses is the number of untimed passes over every statement
	// before the timed ones: the first fills the plan cache while climbing
	// the tiers, later ones let background compiles land and the engine
	// choice settle.
	warmPasses int
	service    bool // open-loop tenant plus a closed-loop hog (service_mixed)
	// passRate is the closed loop's whole passes per second of --seconds:
	// a constant, sized on the seed commit on 2 cores so that the timed
	// part then takes about --seconds. It turns --seconds into a fixed
	// request count, the same on both sides of any comparison.
	passRate float64
	stmts    func(cat *storage.Catalog, rng *rand.Rand) []*stmt
}

// passes is the fixed number of closed-loop passes --seconds stands for;
// the test scale runs one.
func (w *workload) passes(seconds float64, smoke bool) int {
	if smoke {
		return 1
	}
	return max(int(math.Round(w.passRate*seconds)), 1)
}

// smokeSeconds replaces --seconds at the test scale: it sizes the
// open-loop window and the traced run's budgets.
const smokeSeconds = 2

// openRate is tenant alpha's arrival rate on service_mixed, requests/s.
const openRate = 40

// aloneShare is the fraction of -seconds the traced service run spends
// on alpha alone, the denominator of sched.degrade_p95.
const aloneShare = 0.25

var workloads = []*workload{
	{
		name: "adhoc_cold",
		why: "tiny data, plan cache off, ten SQL templates with fresh literals: every request pays parse, bind, " +
			"join ordering, codegen, translate and engine start-up, the paper's latency case",
		sf: 0.01, smokeSF: 0.01, cacheOff: true, passRate: 30, stmts: adhocStmts,
	},
	{
		name: "tpch_cold",
		why: "22 TPC-H plans at SF 0.1 with the cache off: each query starts in bytecode and the controller " +
			"decides when to compile and switch, the paper's Fig. 13 crossover",
		sf: 0.1, smokeSF: 0.01, cacheOff: true, passRate: 2.25, stmts: tpchStmts,
	},
	{
		name: "tpch_warm",
		why: "same plans with the cache on and warm: steady-state execution in the memoised best tier, " +
			"where a compile-path change must show nothing and a kernel change must show",
		sf: 0.1, smokeSF: 0.01, warmPasses: 1, passRate: 2.85, stmts: tpchStmts,
	},
	{
		name: "result_stream",
		why: "three large-result statements alternating binary and NDJSON: little computation, many rows out, " +
			"so result decode and wire serialization dominate and time to first row means something",
		sf: 0.1, smokeSF: 0.01, warmPasses: 2, passRate: 2.4, stmts: streamStmts,
	},
	{
		name: "service_mixed",
		why: "open-loop Poisson tenant on a prepared statement beside a closed-loop hog under per-tenant quotas: " +
			"the only workload with concurrent queries, admission wait and fair-share picking",
		sf: 0.05, smokeSF: 0.01, warmPasses: 10, service: true, stmts: serviceStmts,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// dbOptions is the engine configuration of a workload: aqeserver's
// defaults (adaptive mode, unsimulated compile costs, 64 MiB cache) with
// the worker counts pinned to GOMAXPROCS, plus PR 10's service settings
// on service_mixed.
func (w *workload) dbOptions(procs int) aqe.Options {
	o := aqe.Options{Mode: aqe.ModeAdaptive, Cost: aqe.NativeCosts(),
		Workers: procs, PoolWorkers: procs, MaxConcurrent: 8}
	if w.cacheOff {
		o.CacheBytes = -1
	}
	if w.service {
		o.MaxConcurrentPerTenant = 1
		o.TenantWeights = map[string]int{"alpha": 8, "hog": 1}
		o.MorselCap = 4096
	}
	return o
}

// ---- binding pools ----

func dateLit(days int64) string { return "DATE '" + storage.FormatDate(days) + "'" }

func strLit(s string) string { return "'" + s + "'" }

func decLit(cents int64) string { return storage.DecimalString(cents, 2) }

var (
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
)

// pool draws n bindings from gen.
func pool(rng *rand.Rand, n int, gen func(*rand.Rand) []string) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = gen(rng)
	}
	return out
}

// yearStart returns 1 January of a year in TPC-H's populated range.
func yearStart(rng *rand.Rand) (from, to int64) {
	y := 1993 + rng.Intn(5)
	return storage.DaysFromDate(y, 1, 1), storage.DaysFromDate(y+1, 1, 1)
}

func monthStart(rng *rand.Rand, months int) (from, to int64) {
	m := rng.Intn(48) // 1993-01 .. 1996-12
	return storage.DaysFromDate(1993, 1+m, 1), storage.DaysFromDate(1993, 1+m+months, 1)
}

func adhocStmts(cat *storage.Catalog, rng *rand.Rand) []*stmt {
	ncust := cat.Table("customer").Rows()
	gens := []struct {
		name string
		gen  func(*rand.Rand) []string
	}{
		{"q1", func(r *rand.Rand) []string {
			return []string{dateLit(storage.DaysFromDate(1998, 12, 1) - int64(60+r.Intn(61)))}
		}},
		{"q3", func(r *rand.Rand) []string {
			return []string{strLit(segments[r.Intn(len(segments))]),
				dateLit(storage.DaysFromDate(1995, 3, 1+r.Intn(31)))}
		}},
		{"q5", func(r *rand.Rand) []string {
			from, to := yearStart(r)
			return []string{strLit(regions[r.Intn(len(regions))]), dateLit(from), dateLit(to)}
		}},
		{"q6", func(r *rand.Rand) []string {
			from, to := yearStart(r)
			disc := int64(2 + r.Intn(8))
			return []string{dateLit(from), dateLit(to), decLit(disc - 1), decLit(disc + 1),
				fmt.Sprint(24 + r.Intn(2))}
		}},
		{"q10", func(r *rand.Rand) []string {
			from, to := monthStart(r, 3)
			return []string{dateLit(from), dateLit(to)}
		}},
		{"q12", func(r *rand.Rand) []string {
			a := r.Intn(len(shipModes))
			b := (a + 1 + r.Intn(len(shipModes)-1)) % len(shipModes)
			from, to := yearStart(r)
			return []string{strLit(shipModes[a]), strLit(shipModes[b]), dateLit(from), dateLit(to)}
		}},
		{"q14", func(r *rand.Rand) []string {
			from, to := monthStart(r, 1)
			return []string{dateLit(from), dateLit(to)}
		}},
		{"scan", func(r *rand.Rand) []string {
			from, _ := monthStart(r, 1)
			return []string{decLit(30000000 + int64(r.Intn(40))*250000), dateLit(from)}
		}},
		{"point", func(r *rand.Rand) []string { return []string{fmt.Sprint(1 + r.Intn(ncust))} }},
		{"nation", func(r *rand.Rand) []string {
			return []string{strLit(regions[r.Intn(len(regions))]), fmt.Sprint(r.Intn(10))}
		}},
	}
	var out []*stmt
	for _, g := range gens {
		out = append(out, &stmt{name: g.name, kind: kindQuery, text: mustSQL(g.name),
			pool: pool(rng, poolSize, g.gen), protos: []proto{protoBinary}})
	}
	return out
}

func tpchStmts(*storage.Catalog, *rand.Rand) []*stmt {
	var out []*stmt
	for n := 1; n <= 22; n++ {
		out = append(out, &stmt{name: fmt.Sprintf("tpch%02d", n), kind: kindTPCH, tpch: n,
			pool: [][]string{nil}, protos: []proto{protoBinary}})
	}
	return out
}

// The result_stream statements: a numeric/date filter scan, a join that
// returns strings, and the scan again behind a sort (so a breaker sits
// between the last pipeline and the first row out). The sort keys are
// unique, so the order is fully determined and checked. They are prepared
// statements: fixed literals hash into the plan fingerprint by value, so
// only parameters let every binding share one warm cache entry.
const (
	streamScan = `SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_discount, l_shipdate
FROM lineitem WHERE l_shipdate >= $1 AND l_shipdate < $2`
	streamJoin = `SELECT c_name, c_phone, o_orderkey, o_orderpriority, o_totalprice
FROM customer, orders WHERE c_custkey = o_custkey AND o_orderdate >= $1 AND o_orderdate < $2`
	streamSort = streamScan + ` ORDER BY l_orderkey, l_linenumber`
)

func streamStmts(_ *storage.Catalog, rng *rand.Rand) []*stmt {
	// Windows of a fixed length that slide by whole days, so every binding
	// returns about the same number of rows: some 100k lineitems, some 50k
	// orders at SF 0.1.
	window := func(days int64) func(*rand.Rand) []string {
		return func(r *rand.Rand) []string {
			from := storage.DaysFromDate(1993, 6, 1) + int64(r.Intn(720))
			return []string{dateLit(from), dateLit(from + days)}
		}
	}
	both := []proto{protoBinary, protoHTTP}
	return []*stmt{
		{name: "scan", kind: kindExec, text: streamScan, pool: pool(rng, streamPoolSize, window(417)), protos: both},
		{name: "join", kind: kindExec, text: streamJoin, pool: pool(rng, streamPoolSize, window(800)), protos: both},
		{name: "sort", kind: kindExec, text: streamSort, pool: pool(rng, streamPoolSize, window(417)), protos: both},
	}
}

// svcStmt is the prepared statement tenant alpha executes (the shape of
// aqebench's service experiment): one plan-cache entry serves every
// binding on every connection.
const svcStmt = `SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS s
FROM customer, orders
WHERE c_custkey = o_custkey AND o_totalprice > $1
GROUP BY c_mktsegment`

// serviceStmts lists alpha's statement first, then the hog's two lineitem
// queries. The service experiment this workload comes from used Q1 and
// Q6; here Q12 stands in for Q1, because the adaptive engine flips Q1 at
// a random moment into a vectorized state it never leaves (7.6 ms ->
// 18 ms at SF 0.05), which made every metric of this workload bimodal.
// tpch_warm and exec.auto_vs_best still show that behaviour; this
// workload is about admission and fair share, and needs a steady hog.
func serviceStmts(_ *storage.Catalog, rng *rand.Rand) []*stmt {
	price := func(r *rand.Rand) []string {
		return []string{decLit(int64(r.Intn(400000))*100 + int64(r.Intn(100)))}
	}
	bin := []proto{protoBinary}
	return []*stmt{
		{name: "svc", kind: kindExec, text: svcStmt, pool: pool(rng, poolSize, price), protos: bin},
		{name: "tpch12", kind: kindTPCH, tpch: 12, pool: [][]string{nil}, protos: bin},
		{name: "tpch06", kind: kindTPCH, tpch: 6, pool: [][]string{nil}, protos: bin},
	}
}
