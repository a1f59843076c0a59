package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/volcano"
)

// mkWide builds an n-row table with a unique key, a decimal, a float
// holding NaN among other values, and a string.
func mkWide(name string, n int, rng *rand.Rand) *storage.Table {
	id := storage.NewColumn("w_id", storage.Int64)
	v := storage.NewColumn("w_v", storage.Decimal)
	f := storage.NewColumn("w_f", storage.Float64)
	s := storage.NewColumn("w_s", storage.String)
	floats := []float64{math.NaN(), 2.5, -1, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1}
	words := []string{"alpha", "beta", "gamma delta epsilon", "zeta"}
	for i := 0; i < n; i++ {
		id.AppendInt64(int64(i))
		v.AppendInt64(int64(rng.Intn(1 << 20)))
		f.AppendFloat64(floats[rng.Intn(len(floats))])
		s.AppendString(words[rng.Intn(len(words))])
	}
	return storage.NewTable(name, id, v, f, s)
}

var (
	wideT  = mkWide("wide", 120_000, rand.New(rand.NewSource(34)))
	wideT2 = mkWide("wide2", 60_000, rand.New(rand.NewSource(35)))
)

// arenaChunks is the number of arena chunks n records of size bytes fill
// in one worker's arena: chunks of 4 KiB doubling to 256 KiB (rt.Arena's
// geometry), whole records per chunk, a record larger than its chunk
// alone in one of its own size.
func arenaChunks(n, size int) int {
	c := 0
	for ; n > 0; c++ {
		n -= max((4<<10<<min(c, 6))/size, 1)
	}
	return c
}

// countAllocs wraps e's out_alloc and ht_alloc externs — the refill path
// of the generated bump — with call counters.
func countAllocs(e *Engine) (out, ht *atomic.Int64) {
	out, ht = new(atomic.Int64), new(atomic.Int64)
	for name, n := range map[string]*atomic.Int64{"out_alloc": out, "ht_alloc": ht} {
		fn := e.reg.Func(name)
		e.reg.Register(name, func(ctx *rt.Ctx, args []uint64) uint64 {
			n.Add(1)
			return fn(ctx, args)
		})
	}
	return out, ht
}

// TestAllocCallsPerChunk: generated code bumps output rows and build
// tuples from the worker's window and calls out_alloc / ht_alloc only to
// refill it, so a 120 000-row result and a 60 000-tuple build make at most
// one call per arena chunk — under bytecode, native code, and adaptive
// execution switching tiers every morsel — and still return Volcano's
// rows.
func TestAllocCallsPerChunk(t *testing.T) {
	const workers = 2
	scan := func() plan.Node { return plan.NewScan(wideT, "w_id", "w_v", "w_s") }
	build := func() plan.Node {
		b := plan.NewScan(wideT2, "w_id", "w_s")
		p := plan.NewScan(ordersT, "o_id", "o_total")
		return plan.NewJoin(plan.Inner, b, p,
			[]expr.Expr{plan.C(b.Schema(), "w_id")},
			[]expr.Expr{plan.C(p.Schema(), "o_id")},
			[]string{"w_s"})
	}
	cases := []struct {
		name    string
		build   func() plan.Node
		records int // rows out, or tuples built
		size    int // their record size
		extern  string
	}{
		{"result", scan, wideT.Rows(), 32, "out_alloc"},
		{"build", build, wideT2.Rows(), 16 + 8 + 16, "ht_alloc"},
	}
	modes := map[string]func() *Engine{
		"bytecode": func() *Engine { return New(Options{Workers: workers, Mode: ModeBytecode}) },
		"native":   func() *Engine { return New(Options{Workers: workers, Mode: ModeNative, Cost: Native()}) },
		"adaptive-flip": func() *Engine {
			e, _, _ := flipEveryMorsel(Options{Workers: workers, MorselSize: 1024, MorselCap: 1024})
			return e
		},
	}
	for _, c := range cases {
		want, err := volcano.Run(c.build())
		if err != nil {
			t.Fatal(err)
		}
		wantC := fmt.Sprint(canon(want, typesOf(c.build().Schema())))
		bound := workers * arenaChunks(c.records, c.size)
		for mode, mk := range modes {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				e := mk()
				out, ht := countAllocs(e)
				res, err := e.RunPlan(c.build(), c.name)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(canon(res.Rows, res.Types)); got != wantC {
					t.Fatalf("%d rows differ from Volcano's %d", len(res.Rows), len(want))
				}
				calls := map[string]int64{"out_alloc": out.Load(), "ht_alloc": ht.Load()}[c.extern]
				if calls == 0 && mode != "adaptive-flip" {
					t.Fatalf("%s never called: the counter is not on the refill path", c.extern)
				}
				if calls > int64(bound) {
					t.Errorf("%s called %d times for %d records of %d B: more than the %d arena chunks they fill",
						c.extern, calls, c.records, c.size, bound)
				}
			})
		}
	}
}

// TestOrderByNaNMatchesVolcano: ORDER BY a float column holding NaN (and
// ±0, ±Inf) returns Volcano's order — NaN after +Inf — ascending and
// descending, with and without LIMIT, on every compiled engine.
func TestOrderByNaNMatchesVolcano(t *testing.T) {
	for _, desc := range []bool{false, true} {
		for _, limit := range []int{-1, 40} {
			build := func() plan.Node {
				s := plan.NewScan(wideT2, "w_f", "w_id")
				return plan.NewOrderBy(s, []plan.SortKey{
					{E: plan.C(s.Schema(), "w_f"), Desc: desc},
					{E: plan.C(s.Schema(), "w_id")},
				}, limit)
			}
			want, err := volcano.Run(build())
			if err != nil {
				t.Fatal(err)
			}
			for ename, e := range testEngines() {
				res, err := e.RunPlan(build(), "nan")
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%s desc=%v limit %d: %d rows, want %d", ename, desc, limit, len(res.Rows), len(want))
				}
				for i, w := range want {
					g := res.Rows[i]
					if g[1].I != w[1].I || math.Float64bits(g[0].F) != math.Float64bits(w[0].F) && !(g[0].F != g[0].F && w[0].F != w[0].F) {
						t.Fatalf("%s desc=%v limit %d: row %d is (%v, %d), Volcano's is (%v, %d)",
							ename, desc, limit, i, g[0].F, g[1].I, w[0].F, w[1].I)
					}
				}
			}
		}
	}
}
