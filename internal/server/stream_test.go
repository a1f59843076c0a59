package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"aqe"
	"aqe/internal/expr"
	"aqe/internal/storage"
)

// ---- raw clients: the bytes on the wire, frame by frame ----

type rawFrame struct {
	typ     byte
	payload []byte
	at      time.Time // when its last byte had been read
}

// rawConn is a binary-protocol connection that keeps every frame as it
// arrived.
type rawConn struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t testing.TB, addr, tenant string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t, c: c, br: bufio.NewReader(c)}
	t.Cleanup(func() { c.Close() })
	if tenant != "" {
		var f frameBuf
		f.str16(tenant)
		rc.send(MsgHello, f.b)
		if fr := rc.read(); fr.typ != MsgOK {
			t.Fatalf("Hello answered with 0x%02x %q", fr.typ, fr.payload)
		}
	}
	return rc
}

func (rc *rawConn) send(typ byte, payload []byte) time.Time {
	rc.t.Helper()
	if err := writeFrame(rc.c, typ, payload); err != nil {
		rc.t.Fatal(err)
	}
	return time.Now()
}

func (rc *rawConn) read() rawFrame {
	rc.t.Helper()
	typ, payload, err := readFrame(rc.br, DefaultMaxFrame)
	if err != nil {
		rc.t.Fatalf("reading a frame: %v", err)
	}
	return rawFrame{typ, payload, time.Now()}
}

// result reads frames up to and including Done or Error.
func (rc *rawConn) result() []rawFrame {
	rc.t.Helper()
	var out []rawFrame
	for {
		fr := rc.read()
		out = append(out, fr)
		if fr.typ == MsgDone || fr.typ == MsgError {
			return out
		}
	}
}

func (rc *rawConn) query(sql string) []rawFrame {
	var f frameBuf
	f.u32(0)
	f.b = append(f.b, sql...)
	rc.send(MsgQuery, f.b)
	return rc.result()
}

func (rc *rawConn) prepare(name, sql string) {
	rc.t.Helper()
	var f frameBuf
	f.str16(name)
	f.b = append(f.b, sql...)
	rc.send(MsgPrepare, f.b)
	if fr := rc.read(); fr.typ != MsgOK {
		rc.t.Fatalf("Prepare answered with 0x%02x %q", fr.typ, fr.payload)
	}
}

func (rc *rawConn) execute(name string, args ...string) []rawFrame {
	var f frameBuf
	f.u32(0)
	f.str16(name)
	f.u16(len(args))
	for _, a := range args {
		f.str32(a)
	}
	rc.send(MsgExecute, f.b)
	return rc.result()
}

func (rc *rawConn) tpch(n int) []rawFrame {
	var f frameBuf
	f.u32(0)
	f.u32(n)
	rc.send(MsgTPCH, f.b)
	return rc.result()
}

// splitRows cuts a Rows payload into its rows' byte strings.
func splitRows(t testing.TB, payload []byte, types []expr.Type) [][]byte {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(payload))
	off := 4
	rows := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		start := off
		for _, ty := range types {
			if ty.Kind == expr.KString {
				off += 4 + int(binary.LittleEndian.Uint32(payload[off:]))
			} else {
				off += 8
			}
		}
		rows = append(rows, payload[start:off])
	}
	if off != len(payload) {
		t.Fatalf("Rows payload: %d trailing bytes", len(payload)-off)
	}
	return rows
}

// rawHTTP posts a request and returns the status and the body's lines,
// each with its newline.
func rawHTTP(t testing.TB, ts *testServer, req Request) (int, [][]byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.url("/query"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	all, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, bytes.SplitAfter(bytes.TrimSuffix(all, []byte("\n")), []byte("\n"))
}

func sortedCopy(rows [][]byte) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(r)
	}
	sort.Strings(out)
	return out
}

// The result_stream statements of the benchmark (bench/workloads.go).
const (
	streamScan = `SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_discount, l_shipdate
FROM lineitem WHERE l_shipdate >= $1 AND l_shipdate < $2`
	streamJoin = `SELECT c_name, c_phone, o_orderkey, o_orderpriority, o_totalprice
FROM customer, orders WHERE c_custkey = o_custkey AND o_orderdate >= $1 AND o_orderdate < $2`
	streamSort = streamScan + ` ORDER BY l_orderkey, l_linenumber`
)

// TestWireByteIdentity is the byte-identity net of the append-only
// encoders: the 22 TPC-H queries and the benchmark's three large-result
// statements, over both protocols, compared row for row against the old
// encoders (reference_test.go) fed the in-process, boxed result. Rows are
// compared as multisets of their exact bytes (row order among ties and
// without ORDER BY is unspecified); frames and lines must chunk at
// ChunkRows; every NDJSON line must be exactly what encoding/json writes
// for its content; and the fully ordered statement must match frame for
// frame.
func TestWireByteIdentity(t *testing.T) {
	const chunk = 64
	ts := startServer(t, aqe.Options{}, 0.01, Options{ChunkRows: chunk})
	rc := dialRaw(t, ts.binAddr, "ident")
	sess := ts.db.NewSession("ident")
	ctx := context.Background()

	type tc struct {
		name    string
		ref     func() (*aqe.Result, error)
		bin     func() []rawFrame
		http    Request
		ordered bool // unique sort keys: the order is fully determined
	}
	var cases []tc
	for n := 1; n <= 22; n++ {
		cases = append(cases, tc{
			name: fmt.Sprintf("q%d", n),
			ref:  func() (*aqe.Result, error) { return ts.db.Exec(ts.db.TPCHQuery(n)) },
			bin:  func() []rawFrame { return rc.tpch(n) },
			http: Request{TPCH: n, Tenant: "ident"},
		})
	}
	for _, st := range []struct {
		name, sql string
		args      []string
		ordered   bool
	}{
		{"scan", streamScan, []string{"DATE '1994-01-01'", "DATE '1995-02-22'"}, false},
		{"join", streamJoin, []string{"DATE '1993-06-01'", "DATE '1995-08-10'"}, false},
		{"sort", streamSort, []string{"DATE '1994-01-01'", "DATE '1995-02-22'"}, true},
	} {
		rc.prepare(st.name, st.sql)
		if err := sess.Prepare(st.name, st.sql); err != nil {
			t.Fatal(err)
		}
		if _, err := httpQuery(t, ts, Request{SQL: "PREPARE " + st.name + " AS " + st.sql, Tenant: "ident"}); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{
			name: st.name,
			ref: func() (*aqe.Result, error) {
				vals := make([]*aqe.Value, len(st.args))
				for i, a := range st.args {
					v, err := aqe.ParseLiteral(a)
					if err != nil {
						return nil, err
					}
					vals[i] = v
				}
				return sess.Execute(ctx, st.name, vals)
			},
			bin:     func() []rawFrame { return rc.execute(st.name, st.args...) },
			http:    Request{SQL: "EXECUTE " + st.name + " (" + strings.Join(st.args, ", ") + ")", Tenant: "ident"},
			ordered: st.ordered,
		})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, err := c.ref()
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "scan" && len(ref.Rows) < 5000 {
				t.Fatalf("only %d rows: not a large result", len(ref.Rows))
			}
			wantBin := refRowsPayloads(ref.Rows, ref.Types, chunk)
			wantText := refChunkLines(ref.Rows, ref.Types, chunk)

			// Binary: Cols, Rows*, Done.
			frames := c.bin()
			if len(frames) < 2 || frames[0].typ != MsgCols || frames[len(frames)-1].typ != MsgDone {
				t.Fatalf("binary stream shape: %d frames, first 0x%02x, last 0x%02x %q",
					len(frames), frames[0].typ, frames[len(frames)-1].typ, frames[len(frames)-1].payload)
			}
			cols, types, err := decodeCols(frames[0].payload)
			if err != nil || !reflect.DeepEqual(cols, ref.Cols) || !reflect.DeepEqual(types, ref.Types) {
				t.Fatalf("Cols frame: %v %v (%v), want %v %v", cols, types, err, ref.Cols, ref.Types)
			}
			done := frames[len(frames)-1].payload
			if len(done) != 49 || binary.LittleEndian.Uint64(done) != uint64(len(ref.Rows)) {
				t.Fatalf("Done frame: %d bytes, rows %d; want 49 bytes, rows %d", len(done), binary.LittleEndian.Uint64(done), len(ref.Rows))
			}
			rowFrames := frames[1 : len(frames)-1]
			if len(rowFrames) != len(wantBin) {
				t.Fatalf("%d Rows frames, want %d", len(rowFrames), len(wantBin))
			}
			var got, want [][]byte
			for i, fr := range rowFrames {
				if fr.typ != MsgRows {
					t.Fatalf("frame %d is 0x%02x", i+1, fr.typ)
				}
				if n, w := binary.LittleEndian.Uint32(fr.payload), binary.LittleEndian.Uint32(wantBin[i]); n != w {
					t.Fatalf("Rows frame %d holds %d rows, want %d", i, n, w)
				}
				if c.ordered && !bytes.Equal(fr.payload, wantBin[i]) {
					t.Fatalf("Rows frame %d differs from the reference encoder's", i)
				}
				got = append(got, splitRows(t, fr.payload, types)...)
				want = append(want, splitRows(t, wantBin[i], types)...)
			}
			if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("binary rows differ from the reference encoder's (%d rows)", len(want))
			}

			// NDJSON: header, chunk lines, trailer.
			status, lines := rawHTTP(t, ts, c.http)
			if status != http.StatusOK || len(lines) != len(wantText)+2 {
				t.Fatalf("http %d, %d lines, want 200 and %d", status, len(lines), len(wantText)+2)
			}
			typeNames := make([]string, len(ref.Types))
			for i, ty := range ref.Types {
				typeNames[i] = ty.String()
			}
			var hdr bytes.Buffer
			json.NewEncoder(&hdr).Encode(wireHeader{Cols: ref.Cols, Types: typeNames})
			if !bytes.Equal(lines[0], hdr.Bytes()) {
				t.Fatalf("header line %q, want %q", lines[0], hdr.Bytes())
			}
			var tr wireTrailer
			last := lines[len(lines)-1]
			if !bytes.HasPrefix(last, []byte(`{"done":true,"stats":{"rows":`)) || json.Unmarshal(last, &tr) != nil ||
				tr.Stats == nil || tr.Stats.Rows != int64(len(ref.Rows)) {
				t.Fatalf("trailer line %q", last)
			}
			got, want = got[:0], want[:0]
			for i, line := range lines[1 : len(lines)-1] {
				var ch, wch wireChunk
				if err := json.Unmarshal(line, &ch); err != nil {
					t.Fatalf("chunk line %d: %v", i, err)
				}
				// The hand-built line is what encoding/json writes for the
				// rows it carries.
				var re bytes.Buffer
				json.NewEncoder(&re).Encode(ch)
				if !bytes.Equal(line, re.Bytes()) {
					t.Fatalf("chunk line %d is not encoding/json's encoding of its rows:\n got %.200q\nwant %.200q", i, line, re.Bytes())
				}
				if c.ordered && !bytes.Equal(line, wantText[i]) {
					t.Fatalf("chunk line %d differs from the reference encoder's", i)
				}
				json.Unmarshal(wantText[i], &wch)
				if len(ch.Rows) != len(wch.Rows) {
					t.Fatalf("chunk line %d holds %d rows, want %d", i, len(ch.Rows), len(wch.Rows))
				}
				for j := range ch.Rows {
					a, _ := json.Marshal(ch.Rows[j])
					b, _ := json.Marshal(wch.Rows[j])
					got, want = append(got, a), append(want, b)
				}
			}
			if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("NDJSON rows differ from the reference encoder's (%d rows)", len(want))
			}
		})
	}
}

// FuzzAppendJSONString: the hand-written escaper must write exactly what
// encoding/json writes for the same bytes — clients checksum raw NDJSON
// row bytes, so "equivalent JSON" is not enough.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `quote " backslash \`, "<tag> & more", "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "café 日本", "ls ps ", "bad \xff\xfe utf8", "\xe2\x80", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		want, err := json.Marshal(string(s))
		if err != nil {
			t.Skip()
		}
		prefix := []byte("x")
		if got := appendJSONString(prefix, s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json writes %s", s, got[1:], want)
		}
	})
}

// TestAppendJSONStringEdges runs the fuzz seeds' neighbourhood in the
// ordinary test job: every single byte, and every byte after a multi-byte
// lead, against encoding/json.
func TestAppendJSONStringEdges(t *testing.T) {
	check := func(s []byte) {
		t.Helper()
		want, _ := json.Marshal(string(s))
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		check([]byte{byte(b)})
		check([]byte{'a', byte(b), 'z'})
		for _, lead := range []byte{0xc3, 0xe2, 0xf0} {
			check([]byte{lead, byte(b)})
			check([]byte{lead, 0x80, byte(b), 'z'})
		}
	}
	for r := rune(0x2020); r < 0x2030; r++ {
		check(utf8.AppendRune([]byte("a"), r))
	}
}

// TestFirstRowsBeforeExecutionEnds observes result streaming on the wire:
// for a plan without ORDER BY the first Rows frame reaches the client
// sooner after the request was sent than the engine, by its own account
// in the Done frame, spent executing — so it left while the final
// pipeline (the plan's only one) was still running. With an ORDER BY the
// first rows come after execution and the sort.
func TestFirstRowsBeforeExecutionEnds(t *testing.T) {
	ts := startServer(t, aqe.Options{Workers: 2}, 0.02, Options{})
	rc := dialRaw(t, ts.binAddr, "")
	const scan = `SELECT l_orderkey, l_linenumber, l_extendedprice, l_shipdate, l_comment FROM lineitem`
	rc.query(scan) // warm the plan cache: no compile time in the way

	timed := func(sql string) (ttfr time.Duration, ws *WireStats, rows int) {
		var f frameBuf
		f.u32(0)
		f.b = append(f.b, sql...)
		sent := rc.send(MsgQuery, f.b)
		for {
			fr := rc.read()
			switch fr.typ {
			case MsgRows:
				if ttfr == 0 {
					ttfr = fr.at.Sub(sent)
				}
				rows += int(binary.LittleEndian.Uint32(fr.payload))
			case MsgDone:
				ws, err := decodeDone(fr.payload)
				if err != nil {
					t.Fatal(err)
				}
				return ttfr, ws, rows
			case MsgError:
				t.Fatalf("%s", fr.payload)
			}
		}
	}
	// The send timestamp is taken after the write returns and execution
	// starts after the server has read the request, so ttfr < exec time is
	// a sufficient condition on one clock; a few attempts absorb a stall
	// between the server's write and this goroutine's read.
	var ttfr time.Duration
	var ws *WireStats
	for attempt := 0; attempt < 5; attempt++ {
		var rows int
		ttfr, ws, rows = timed(scan)
		if want := ts.db.Catalog().Table("lineitem").Rows(); rows != want || ws.Rows != int64(want) {
			t.Fatalf("%d rows (Done says %d), lineitem has %d", rows, ws.Rows, want)
		}
		if ttfr < time.Duration(ws.ExecNS) {
			break
		}
	}
	if ttfr >= time.Duration(ws.ExecNS) {
		t.Errorf("first Rows frame after %v, execution took %v: rows were not sent while the final pipeline ran", ttfr, time.Duration(ws.ExecNS))
	}
	t.Logf("unsorted: first rows after %v of %v executing", ttfr, time.Duration(ws.ExecNS))

	ttfr, ws, _ = timed(scan + ` ORDER BY l_orderkey, l_linenumber`)
	if ttfr < time.Duration(ws.ExecNS) {
		t.Errorf("ORDER BY: first Rows frame after %v, before execution ended (%v)", ttfr, time.Duration(ws.ExecNS))
	}
}

// divTable is a one-column table whose last row makes `840 / v` trap,
// long after the first rows of a scan over it have been sent.
func divTable(n int) *storage.Table {
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < n-1; i++ {
		v.AppendInt64(int64(i%7 + 1))
	}
	v.AppendInt64(0)
	return storage.NewTable("divs", v)
}

// TestMidStreamTrap: a trap raised in the final pipeline after the first
// chunk went out arrives as an Error frame / an error trailer behind the
// rows already sent, and the connection stays usable.
func TestMidStreamTrap(t *testing.T) {
	ts := startServer(t, aqe.Options{Workers: 1}, 0, Options{ChunkRows: 64})
	ts.db.Register(divTable(400000))
	const bad, good = `SELECT 840 / v AS q FROM divs`, `SELECT count(*) AS n FROM divs`

	rc := dialRaw(t, ts.binAddr, "")
	frames := rc.query(bad)
	last := frames[len(frames)-1]
	if last.typ != MsgError || !strings.Contains(string(last.payload), "division by zero") {
		t.Fatalf("stream ended with 0x%02x %q, want the division-by-zero Error frame", last.typ, last.payload)
	}
	if len(frames) < 3 || frames[0].typ != MsgCols || frames[1].typ != MsgRows {
		t.Fatalf("%d frames before the error: want Cols and Rows frames ahead of it", len(frames)-1)
	}
	if frames = rc.query(good); frames[len(frames)-1].typ != MsgDone {
		t.Fatalf("connection unusable after a mid-stream error: %q", frames[len(frames)-1].payload)
	}
	// A trap before the first row is still a lone Error frame.
	ts.db.Register(storage.NewTable("zero", divTable(1).Col("v")))
	if frames = rc.query(`SELECT 840 / v AS q FROM zero`); len(frames) != 1 || frames[0].typ != MsgError {
		t.Fatalf("pre-first-row trap: %d frames, first 0x%02x", len(frames), frames[0].typ)
	}

	status, lines := rawHTTP(t, ts, Request{SQL: bad})
	if status != http.StatusOK || len(lines) < 3 {
		t.Fatalf("http %d with %d lines: want a started stream", status, len(lines))
	}
	if !bytes.HasPrefix(lines[0], []byte(`{"cols":`)) || !bytes.HasPrefix(lines[1], []byte(`{"rows":`)) {
		t.Fatalf("stream starts %q / %q", lines[0], lines[1])
	}
	var tr wireTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || tr.Done || !strings.Contains(tr.Error, "division by zero") {
		t.Fatalf("trailer %q", lines[len(lines)-1])
	}
	// Before the first row: a plain HTTP error, no stream.
	if status, lines = rawHTTP(t, ts, Request{SQL: `SELECT 840 / v AS q FROM zero`}); status != http.StatusUnprocessableEntity {
		t.Fatalf("pre-first-row trap over HTTP: status %d, body %q", status, lines)
	}
	if st := ts.db.Engine().SchedStats(); st.Running != 0 {
		t.Fatalf("tickets held after the traps: %+v", st)
	}
}

// waitIdle polls until no query holds a ticket and the goroutine count is
// back at (or under) base.
func waitIdle(t testing.TB, ts *testServer, base int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := ts.db.Engine().SchedStats()
		n := runtime.NumGoroutine()
		if st.Running == 0 && st.Waiting == 0 && n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("not idle: admission %+v, %d goroutines (base %d)\n%s", st, n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const wideScan = `SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice,
l_discount, l_tax, l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct, l_shipmode, l_comment FROM lineitem`

// TestDisconnectMidStream: a client that goes away while its result is
// streaming — the binary socket closed after the first Rows frame, the
// HTTP request cancelled after the first chunk line — cancels the query
// through the engine's cancellation path: no ticket, goroutine or pinned
// result is left behind, and the next query on a fresh connection is
// bit-identical to before.
func TestDisconnectMidStream(t *testing.T) {
	ts := startServer(t, aqe.Options{MaxConcurrent: 2}, 0.02, Options{})
	const probe = `SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS s FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`
	probeRows := func() [][]byte {
		rc := dialRaw(t, ts.binAddr, "")
		defer rc.c.Close()
		var out [][]byte
		for _, fr := range rc.query(probe) {
			if fr.typ == MsgError {
				t.Fatalf("probe: %s", fr.payload)
			}
			if fr.typ == MsgRows {
				out = append(out, fr.payload)
			}
		}
		return out
	}
	want := probeRows()
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	base := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		rc := dialRaw(t, ts.binAddr, "")
		rc.c.(*net.TCPConn).SetReadBuffer(4 << 10)
		var f frameBuf
		f.u32(0)
		f.b = append(f.b, wideScan...)
		rc.send(MsgQuery, f.b)
		for rc.read().typ != MsgRows {
		}
		rc.c.Close()
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(Request{SQL: wideScan})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.url("/query"), bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("stream ended before a chunk line: %v", err)
			}
			if bytes.HasPrefix(line, []byte(`{"rows":`)) {
				break
			}
		}
		cancel()
		resp.Body.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	waitIdle(t, ts, base)
	if got := probeRows(); !reflect.DeepEqual(got, want) {
		t.Fatal("the query after the disconnects returned different bytes")
	}
}

// TestStalledClientHoldsNothing: a client that stops reading stalls its
// own connection handler in a socket write and nothing else. With
// MaxConcurrent 1, a second tenant's query is admitted and completes while
// the first result — far larger than the socket buffers — sits unread:
// the pool finished the pipeline without waiting for the socket and the
// ticket came back when it did.
func TestStalledClientHoldsNothing(t *testing.T) {
	ts := startServer(t, aqe.Options{MaxConcurrent: 1}, 0.02, Options{})
	base := runtime.NumGoroutine()
	stalled := dialRaw(t, ts.binAddr, "slow")
	stalled.c.(*net.TCPConn).SetReadBuffer(4 << 10)
	var f frameBuf
	f.u32(0)
	f.b = append(f.b, wideScan...)
	stalled.send(MsgQuery, f.b)
	for stalled.read().typ != MsgRows {
	}
	// ... and the client reads no further.

	done := make(chan error, 1)
	go func() {
		cl, err := Dial(ts.binAddr, "other")
		if err != nil {
			done <- err
			return
		}
		defer cl.Close()
		res, err := cl.TPCH(6, 0)
		if err == nil && len(res.Rows) != 1 {
			err = fmt.Errorf("Q6 returned %d rows", len(res.Rows))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second tenant's query: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second tenant's query did not finish while the first client was stalled: the stalled result holds a ticket or a pool worker")
	}
	stalled.c.Close()
	waitIdle(t, ts, base)
}

// TestStalledClientDeadline: a request deadline also ends a request whose
// client stopped reading. The context cancels the query, but the handler
// sits in a socket write nothing else would wake: with timeout_ms 200 and
// a result far larger than the socket buffers left unread — the client
// keeps its connection open — no goroutine is inside a request handler
// and the engine is idle within a second, over both protocols. (The
// connection itself closes only if the write did stall; a host slow enough
// to hit the deadline before the buffers fill answers with the error and
// keeps it.)
func TestStalledClientDeadline(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.02, Options{})
	handlerGone := func(t *testing.T) {
		t.Helper()
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
			stacks := string(buf[:runtime.Stack(buf, true)])
			st := ts.db.Engine().SchedStats()
			if st.Running == 0 && st.Waiting == 0 &&
				!strings.Contains(stacks, "(*Server).handleQuery") &&
				!strings.Contains(stacks, "(*Server).serveFrame") {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("request still in flight a second after its client stalled: admission %+v\n%s", st, stacks)
			}
		}
	}
	t.Run("binary", func(t *testing.T) {
		stalled := dialRaw(t, ts.binAddr, "slow")
		stalled.c.(*net.TCPConn).SetReadBuffer(4 << 10)
		var f frameBuf
		f.u32(200)
		f.b = append(f.b, wideScan...)
		stalled.send(MsgQuery, f.b)
		for typ := stalled.read().typ; typ != MsgRows && typ != MsgError; typ = stalled.read().typ {
		}
		handlerGone(t)
	})
	t.Run("http", func(t *testing.T) {
		c, err := net.Dial("tcp", ts.httpAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		body, _ := json.Marshal(Request{SQL: wideScan, TimeoutMS: 200})
		fmt.Fprintf(c, "POST /query HTTP/1.1\r\nHost: aqe\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		if status, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			t.Fatalf("response starts %q, %v", status, err)
		}
		handlerGone(t)
	})
}

// TestLimitWithoutOrderBy: LIMIT on an unsorted plan is applied on the
// streaming path — exactly Limit rows on the wire and in the stats.
func TestLimitWithoutOrderBy(t *testing.T) {
	ts := startServer(t, aqe.Options{}, 0.01, Options{ChunkRows: 100})
	rc := dialRaw(t, ts.binAddr, "")
	for _, limit := range []int{1, 100, 101, 1234} {
		sql := fmt.Sprintf(`SELECT l_orderkey, l_comment FROM lineitem LIMIT %d`, limit)
		frames := rc.query(sql)
		rows := 0
		for _, fr := range frames[1 : len(frames)-1] {
			rows += int(binary.LittleEndian.Uint32(fr.payload))
		}
		ws, err := decodeDone(frames[len(frames)-1].payload)
		if err != nil {
			t.Fatalf("LIMIT %d: %v (%q)", limit, err, frames[len(frames)-1].payload)
		}
		if rows != limit || ws.Rows != int64(limit) || len(frames)-2 != (limit+99)/100 {
			t.Errorf("LIMIT %d over binary: %d rows in %d frames, Done says %d", limit, rows, len(frames)-2, ws.Rows)
		}
		res, err := httpQuery(t, ts, Request{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != limit || res.Trailer.Stats.Rows != int64(limit) {
			t.Errorf("LIMIT %d over HTTP: %d rows, trailer says %d", limit, len(res.Rows), res.Trailer.Stats.Rows)
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d discardResponse) WriteHeader(int)             {}

// TestWirePathAllocations pins the encoders to O(chunks) allocations: a
// 10k-row result with strings, dates and decimals goes through each
// protocol's whole wire path (header, rows, trailer) in a number of
// allocations far below one per row — nothing is boxed, formatted to a
// string, or buffered per row or per cell.
func TestWirePathAllocations(t *testing.T) {
	const rows, chunk = 10000, 256
	ts := startServer(t, aqe.Options{}, 0.01, Options{ChunkRows: chunk})
	res, err := ts.db.NewSession("").ExecTo(context.Background(),
		fmt.Sprintf(`SELECT l_orderkey, l_extendedprice, l_shipdate, l_returnflag, l_comment FROM lineitem LIMIT %d`, rows),
		func(aqe.Rows) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != rows || res.Rows != nil {
		t.Fatalf("%d rows in the set, %d boxed", res.Set.Len(), len(res.Rows))
	}
	const budget = rows / chunk

	bc := &binConn{bw: bufio.NewWriter(io.Discard)}
	binary := testing.AllocsPerRun(10, func() {
		st := &binStream{bc: bc, chunk: chunk}
		if err := res.Set.Each(st.emit); err != nil {
			t.Fatal(err)
		}
		if st.finish(res, nil) {
			t.Fatal("finish asked to close the connection")
		}
	})
	w := discardResponse{h: http.Header{}}
	var buf []byte
	ndjson := testing.AllocsPerRun(10, func() {
		st := &ndjsonStream{w: w, chunk: chunk, buf: buf}
		if err := res.Set.Each(st.emit); err != nil {
			t.Fatal(err)
		}
		st.finish(res, nil)
		buf = st.buf
	})
	t.Logf("%d rows in chunks of %d: %.0f allocations over binary, %.0f over NDJSON (budget %d)", rows, chunk, binary, ndjson, budget)
	if binary > budget || ndjson > budget {
		t.Errorf("wire path allocates per row: %.0f (binary) / %.0f (NDJSON) allocations for %d rows, budget %d", binary, ndjson, rows, budget)
	}
}
