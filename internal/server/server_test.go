package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"aqe"
	"aqe/internal/asm"
)

// testServer is one running server on ephemeral localhost ports.
type testServer struct {
	srv      *Server
	db       *aqe.DB
	httpAddr string
	binAddr  string
}

func (ts *testServer) url(path string) string { return "http://" + ts.httpAddr + path }

// startServer boots a server over a fresh DB. The caller owns shutdown
// via t.Cleanup.
func startServer(t testing.TB, dbOpts aqe.Options, sf float64, srvOpts Options) *testServer {
	t.Helper()
	db := aqe.Open(dbOpts)
	if sf > 0 {
		db.LoadTPCH(sf)
	}
	srvOpts.DB = db
	srv := New(srvOpts)
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeHTTP(httpLn)
	go srv.ServeBinary(binLn)
	ts := &testServer{srv: srv, db: db,
		httpAddr: httpLn.Addr().String(), binAddr: binLn.Addr().String()}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ts.srv.Shutdown(ctx)
	})
	return ts
}

// httpResult is a decoded NDJSON response stream.
type httpResult struct {
	Header  wireHeader
	Rows    [][]string
	Trailer wireTrailer
}

// httpQuery posts one request and decodes the NDJSON stream.
func httpQuery(t testing.TB, ts *testServer, req Request) (*httpResult, error) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.url("/query"), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := readAll(resp.Body)
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(msg))
	}
	out := &httpResult{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), DefaultMaxFrame)
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		if line == 0 {
			if err := json.Unmarshal(raw, &out.Header); err != nil {
				t.Fatalf("header line: %v", err)
			}
		} else {
			// Chunk or trailer: sniff by the "done"/"error" keys.
			var tr wireTrailer
			if json.Unmarshal(raw, &tr) == nil && (tr.Done || tr.Error != "") {
				out.Trailer = tr
			} else {
				var ch wireChunk
				if err := json.Unmarshal(raw, &ch); err != nil {
					t.Fatalf("chunk line: %v", err)
				}
				out.Rows = append(out.Rows, ch.Rows...)
			}
		}
		line++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if out.Trailer.Error != "" {
		return out, fmt.Errorf("%s", out.Trailer.Error)
	}
	if !out.Trailer.Done {
		return out, fmt.Errorf("stream ended without a trailer")
	}
	return out, nil
}

func readAll(r interface{ Read([]byte) (int, error) }) (string, error) {
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String(), nil
		}
	}
}

func TestHTTPQueryStream(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.01, Options{ChunkRows: 16})
	res, err := httpQuery(t, ts, Request{
		SQL: `SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS s
		      FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"l_returnflag", "n", "s"}; !equalStrings(res.Header.Cols, want) {
		t.Fatalf("cols %v, want %v", res.Header.Cols, want)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3 (returnflags A/N/R)", len(res.Rows))
	}
	if res.Trailer.Stats == nil || res.Trailer.Stats.Rows != 3 {
		t.Fatalf("trailer stats %+v, want rows=3", res.Trailer.Stats)
	}
	// The header announces engine types.
	if res.Header.Types[0] != "char" || res.Header.Types[1] != "int" {
		t.Fatalf("types %v", res.Header.Types)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.01, Options{})
	cases := []Request{
		{},                              // neither sql nor tpch
		{SQL: "SELECT FROM nothing ("},  // parse error
		{SQL: "SELECT * FROM no_table"}, // unknown table
		{TPCH: 23},                      // out of range
		{SQL: "EXECUTE nosuch (1)"},     // unknown prepared statement
	}
	for _, req := range cases {
		if _, err := httpQuery(t, ts, req); err == nil {
			t.Errorf("request %+v: expected an error", req)
		}
	}
	// Bad JSON body is a 400, not a hang or a panic.
	resp, err := http.Post(ts.url("/query"), "application/json",
		strings.NewReader(`{"sql": 123`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPPreparedStatements(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.01, Options{})
	run := func(sql string) (*httpResult, error) {
		return httpQuery(t, ts, Request{SQL: sql, Tenant: "t1"})
	}
	if _, err := run(`PREPARE q AS SELECT count(*) AS n FROM lineitem WHERE l_quantity > $1`); err != nil {
		t.Fatal(err)
	}
	lo, err := run(`EXECUTE q (49)`)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := run(`EXECUTE q (1)`)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Rows[0][0] >= hi.Rows[0][0] && lo.Rows[0][0] != "0" {
		t.Fatalf("quantity>49 count %s not below quantity>1 count %s", lo.Rows[0][0], hi.Rows[0][0])
	}
	// Second execution is served entirely from the plan cache.
	again, err := run(`EXECUTE q (25)`)
	if err != nil {
		t.Fatal(err)
	}
	st := again.Trailer.Stats
	if !st.CacheHit || st.TranslateNS != 0 || st.CompileNS != 0 {
		t.Fatalf("warm EXECUTE: cacheHit=%v translate=%d compile=%d, want hit with zero work",
			st.CacheHit, st.TranslateNS, st.CompileNS)
	}
	// Prepared statements are tenant-scoped over HTTP.
	if _, err := httpQuery(t, ts, Request{SQL: `EXECUTE q (1)`, Tenant: "other"}); err == nil {
		t.Fatal("tenant isolation: q visible to another tenant")
	}
	if _, err := run(`DEALLOCATE q`); err != nil {
		t.Fatal(err)
	}
	if _, err := run(`EXECUTE q (1)`); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE succeeded")
	}
}

func TestBinaryProtocol(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.01, Options{ChunkRows: 32})
	cl, err := Dial(ts.binAddr, "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(`SELECT l_returnflag, count(*) AS n FROM lineitem
	                      GROUP BY l_returnflag ORDER BY l_returnflag`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Stats.Rows != 3 {
		t.Fatalf("%d rows (stats %d), want 3", len(res.Rows), res.Stats.Rows)
	}
	if res.Cols[0] != "l_returnflag" {
		t.Fatalf("cols %v", res.Cols)
	}
	// Statement errors keep the connection usable.
	if _, err := cl.Query("SELECT bogus (", 0); err == nil {
		t.Fatal("bad SQL did not error")
	}
	if _, err := cl.Query("SELECT count(*) AS n FROM orders", 0); err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
	// Prepared statements: binding values travel as SQL literals.
	if err := cl.Prepare("byflag", `SELECT count(*) AS n FROM lineitem WHERE l_returnflag = $1`); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Execute("byflag", []string{"'A'"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Execute("byflag", []string{"'R'"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0][0].I <= 0 || warm.Rows[0][0].I <= 0 {
		t.Fatalf("flag counts %d / %d, want positive", a.Rows[0][0].I, warm.Rows[0][0].I)
	}
	if !warm.Stats.CacheHit || warm.Stats.TranslateNS != 0 || warm.Stats.CompileNS != 0 {
		t.Fatalf("warm EXECUTE over wire: %+v, want cache hit with zero translate/compile", warm.Stats)
	}
	if err := cl.Deallocate("byflag"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Execute("byflag", []string{"'A'"}, 0); err == nil {
		t.Fatal("EXECUTE after Deallocate succeeded")
	}
	// The Stats endpoint reflects the admitted tenant, and the machine
	// code the queries above left in the plan cache.
	resp, err := http.Get(ts.url("/stats"))
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Admission struct {
			Tenants map[string]struct{ Admitted int64 }
		}
		ExecMem *asm.ExecMemStats `json:"exec_mem"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Admission.Tenants["gold"].Admitted == 0 {
		t.Fatalf("tenant gold not visible in /stats: %+v", stats.Admission.Tenants)
	}
	if m := stats.ExecMem; m == nil || (m.Mappings > 0) != asm.Supported() || m.Bytes < 4096*m.Mappings {
		t.Fatalf("exec_mem in /stats: %+v with native backend = %v", m, asm.Supported())
	}
}

func TestRequestDeadline(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.02, Options{})
	// A 1ms deadline on a multi-join query must cancel, not complete.
	_, err := httpQuery(t, ts, Request{TPCH: 9, TimeoutMS: 1})
	if err == nil {
		t.Skip("query finished inside 1ms; machine too fast to observe cancellation")
	}
	if !strings.Contains(err.Error(), "cancel") && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline error %q does not mention cancellation", err)
	}
	// The engine stays healthy for the next query.
	if _, err := httpQuery(t, ts, Request{SQL: "SELECT count(*) AS n FROM region"}); err != nil {
		t.Fatalf("query after cancelled query: %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.01, Options{})
	// A busy binary connection: start a query, then shut down mid-flight.
	cl, err := Dial(ts.binAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var qerr error
	var qres *ClientResult
	go func() {
		defer wg.Done()
		qres, qerr = cl.TPCH(1, 0)
	}()
	time.Sleep(20 * time.Millisecond) // let the query get admitted
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	// The in-flight query either completed (drained) or the connection
	// closed if it had not started; it must not hang, and a completed
	// result must be whole.
	if qerr == nil && qres.Stats.Rows != int64(len(qres.Rows)) {
		t.Fatalf("drained query returned a torn result: %d of %d rows", len(qres.Rows), qres.Stats.Rows)
	}
	// New work is refused on both protocols.
	if _, err := httpQuery(t, ts, Request{SQL: "SELECT count(*) AS n FROM region"}); err == nil {
		t.Fatal("HTTP accepted a query after drain")
	}
	// The binary listener is closed: a fresh connection is refused, or —
	// if the dial lands in a lingering accept backlog — its first query
	// fails instead of executing.
	if cl2, err := Dial(ts.binAddr, ""); err == nil {
		if _, err := cl2.Query("SELECT count(*) AS n FROM region", 0); err == nil {
			t.Fatal("binary protocol accepted a query after drain")
		}
		cl2.Close()
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
