package aqe

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aqe/internal/exec"
)

func TestPublicAPI(t *testing.T) {
	db := Open(Options{Workers: 2, Mode: ModeAdaptive})
	db.LoadTPCH(0.003)

	res, err := db.ExecSQL(`SELECT l_returnflag, count(*) AS n
		FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("returnflags = %d, want 3", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].I
	}
	if total != int64(db.Catalog().Table("lineitem").Rows()) {
		t.Errorf("counts sum to %d", total)
	}

	out := FormatRows(res, 2)
	if !strings.Contains(out, "l_returnflag") || !strings.Contains(out, "more rows") {
		t.Errorf("FormatRows output unexpected:\n%s", out)
	}
}

func TestPublicAPITPCHPlans(t *testing.T) {
	db := Open(Options{Workers: 2, Mode: ModeBytecode})
	db.LoadTPCH(0.003)
	for _, qn := range []int{1, 6, 13} {
		res, err := db.Exec(db.TPCHQuery(qn))
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("Q%d returned no rows", qn)
		}
	}
}

func TestPublicAPIModes(t *testing.T) {
	const q = `SELECT sum(l_extendedprice * l_discount) AS rev FROM lineitem
		WHERE l_discount BETWEEN 0.05 AND 0.07`
	var want int64
	for i, m := range []Mode{ModeBytecode, ModeOptimized, ModeAdaptive, ModeNative} {
		db := Open(Options{Workers: 2, Mode: m, Cost: NativeCosts()})
		db.LoadTPCH(0.003)
		res, err := db.ExecSQL(q)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if i == 0 {
			want = res.Rows[0][0].I
		} else if res.Rows[0][0].I != want {
			t.Errorf("%v: revenue %d, want %d", m, res.Rows[0][0].I, want)
		}
	}
}

// TestOpenMode: the mode a DB is opened with is the mode its engine runs.
// ModeBytecode finishes every pipeline in bytecode (it once collided with
// the zero Mode and ran adaptive), and the zero Options run adaptive.
func TestOpenMode(t *testing.T) {
	db := Open(Options{Workers: 2, Mode: ModeBytecode})
	if m := db.Engine().Options().Mode; m != ModeBytecode {
		t.Fatalf("Open(ModeBytecode) runs %v", m)
	}
	db.LoadTPCH(0.003)
	res, err := db.Exec(db.TPCHQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.FinalLevels) == 0 {
		t.Fatal("no pipeline levels reported")
	}
	for i, l := range res.Stats.FinalLevels {
		if l != exec.LevelBytecode {
			t.Errorf("pipeline %d finished at %v under ModeBytecode", i, l)
		}
	}
	if m := Open(Options{}).Engine().Options().Mode; m != ModeAdaptive {
		t.Errorf("Open(Options{}) runs %v, want adaptive", m)
	}
}

func TestPublicAPIContext(t *testing.T) {
	db := Open(Options{Workers: 1, PoolWorkers: 1, MaxConcurrent: 2})
	db.LoadTPCH(0.003)

	res, err := db.ExecSQLCtx(context.Background(),
		`SELECT count(*) FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cancelled || res.Stats.Queued {
		t.Errorf("uncontended query reported cancelled=%v queued=%v",
			res.Stats.Cancelled, res.Stats.Queued)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = db.ExecCtx(ctx, db.TPCHQuery(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err=%v, want context.Canceled", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Error("Stats.Cancelled not set on cancelled query")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := Open(Options{})
	db.LoadTPCH(0.002)
	if _, err := db.ExecSQL("SELECT nosuch FROM lineitem"); err == nil {
		t.Error("expected unknown column error")
	}
	if _, err := db.ExecSQL("this is not sql"); err == nil {
		t.Error("expected parse error")
	}
}
