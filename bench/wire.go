package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"aqe/internal/expr"
	"aqe/internal/server"
)

// The benchmark's own wire clients. They differ from server.Client in
// what they keep: a timestamp per frame, byte counts, and a running
// checksum of the rows instead of the decoded rows themselves, so that
// time-to-first-row and bytes-per-row are measured without touching the
// program, and so that checking a 100k-row response costs one pass over
// its bytes.

// checksum identifies a result. sum adds the row hashes and so ignores
// row order; seq chains them and so pins it.
type checksum struct {
	Sum uint64 `json:"sum"`
	Seq uint64 `json:"seq"`
}

func (c *checksum) addRow(row []byte) {
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range row {
		h = (h ^ uint64(b)) * 1099511628211
	}
	c.Sum += h
	c.Seq = c.Seq*0x9E3779B97F4A7C15 + h
}

// response is what a client observed of one request.
type response struct {
	sent      time.Time // just before the request bytes were written
	firstRows time.Time // header of the first Rows frame / first rows line read
	done      time.Time // Done frame / trailer read
	rows      int
	rowBytes  int64 // payload bytes of the row-carrying frames / lines
	sum       checksum
	stats     server.WireStats
	cols      []string
	kinds     []expr.Kind
	payloads  [][]byte // raw row-carrying payloads, kept only when the client's keep is set
}

// ttfr is the time to the first row; a result without rows has none
// before its end.
func (r *response) ttfr() time.Duration {
	if r.firstRows.IsZero() {
		return r.done.Sub(r.sent)
	}
	return r.firstRows.Sub(r.sent)
}

func (r *response) latency() time.Duration { return r.done.Sub(r.sent) }

// ---- binary protocol ----

const maxFrame = server.DefaultMaxFrame

// binClient is one binary-protocol connection: strictly request/response.
type binClient struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	buf  []byte
	keep bool // retain raw Rows payloads (the byte-for-byte test)
}

func dialBin(addr, tenant string) (*binClient, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	cl := &binClient{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	if tenant != "" {
		cl.begin(server.MsgHello).str16(tenant)
		if err := cl.ack(); err != nil {
			c.Close()
			return nil, fmt.Errorf("hello: %w", err)
		}
	}
	return cl, nil
}

func (cl *binClient) close() { cl.c.Close() }

// begin starts a request frame; the length is patched in by send.
func (cl *binClient) begin(typ byte) *binClient {
	cl.out = append(cl.out[:0], 0, 0, 0, 0, typ)
	return cl
}

func (cl *binClient) u16(v int) *binClient {
	cl.out = binary.LittleEndian.AppendUint16(cl.out, uint16(v))
	return cl
}

func (cl *binClient) u32(v int) *binClient {
	cl.out = binary.LittleEndian.AppendUint32(cl.out, uint32(v))
	return cl
}

func (cl *binClient) str16(s string) *binClient {
	cl.u16(len(s))
	cl.out = append(cl.out, s...)
	return cl
}

func (cl *binClient) str32(s string) *binClient {
	cl.u32(len(s))
	cl.out = append(cl.out, s...)
	return cl
}

func (cl *binClient) raw(s string) *binClient {
	cl.out = append(cl.out, s...)
	return cl
}

func (cl *binClient) send() (time.Time, error) {
	binary.LittleEndian.PutUint32(cl.out[:4], uint32(len(cl.out)-4))
	t := time.Now()
	_, err := cl.c.Write(cl.out)
	return t, err
}

// readHeader reads one frame header and stamps it.
func (cl *binClient) readHeader() (typ byte, n int, at time.Time, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(cl.br, hdr[:]); err != nil {
		return 0, 0, at, err
	}
	at = time.Now()
	n = int(binary.LittleEndian.Uint32(hdr[:4])) - 1
	if n < 0 || n >= maxFrame {
		return 0, 0, at, fmt.Errorf("frame of %d bytes outside the protocol's bounds", n+1)
	}
	return hdr[4], n, at, nil
}

// readPayload reads n payload bytes into the client's reusable buffer.
func (cl *binClient) readPayload(n int) ([]byte, error) {
	if cap(cl.buf) < n {
		cl.buf = make([]byte, n)
	}
	p := cl.buf[:n]
	_, err := io.ReadFull(cl.br, p)
	return p, err
}

func (cl *binClient) ack() error {
	if _, err := cl.send(); err != nil {
		return err
	}
	typ, n, _, err := cl.readHeader()
	if err != nil {
		return err
	}
	p, err := cl.readPayload(n)
	if err != nil {
		return err
	}
	switch typ {
	case server.MsgOK:
		return nil
	case server.MsgError:
		return errors.New(string(p))
	}
	return fmt.Errorf("unexpected frame 0x%02x awaiting ack", typ)
}

func (cl *binClient) prepare(name, sql string) error {
	cl.begin(server.MsgPrepare).str16(name).raw(sql)
	return cl.ack()
}

func (cl *binClient) query(sql string, timeoutMS int) (*response, error) {
	cl.begin(server.MsgQuery).u32(timeoutMS).raw(sql)
	return cl.roundTrip()
}

func (cl *binClient) tpch(n, timeoutMS int) (*response, error) {
	cl.begin(server.MsgTPCH).u32(timeoutMS).u32(n)
	return cl.roundTrip()
}

func (cl *binClient) execute(name string, args []string, timeoutMS int) (*response, error) {
	cl.begin(server.MsgExecute).u32(timeoutMS).str16(name).u16(len(args))
	for _, a := range args {
		cl.str32(a)
	}
	return cl.roundTrip()
}

// roundTrip sends the pending request and reads Cols, Rows*, Done.
func (cl *binClient) roundTrip() (*response, error) {
	sent, err := cl.send()
	if err != nil {
		return nil, err
	}
	res := &response{sent: sent}
	for {
		typ, n, at, err := cl.readHeader()
		if err != nil {
			return nil, err
		}
		p, err := cl.readPayload(n)
		if err != nil {
			return nil, err
		}
		switch typ {
		case server.MsgError:
			return nil, errors.New(string(p))
		case server.MsgCols:
			if res.cols, res.kinds, err = decodeCols(p); err != nil {
				return nil, err
			}
		case server.MsgRows:
			if res.firstRows.IsZero() {
				res.firstRows = at
			}
			if res.kinds == nil {
				return nil, errors.New("Rows frame before Cols")
			}
			nrows, err := sumBinaryRows(p, res.kinds, &res.sum)
			if err != nil {
				return nil, err
			}
			res.rows += nrows
			res.rowBytes += int64(len(p))
			if cl.keep {
				res.payloads = append(res.payloads, append([]byte(nil), p...))
			}
		case server.MsgDone:
			res.done = at
			if len(p) != 49 {
				return nil, fmt.Errorf("Done frame of %d bytes, want 49", len(p))
			}
			i64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(p[8*i:])) }
			res.stats = server.WireStats{Rows: i64(0), TranslateNS: i64(1), CompileNS: i64(2),
				ExecNS: i64(3), WaitNS: i64(4), TotalNS: i64(5),
				CacheHit: p[48]&server.FlagCacheHit != 0, Queued: p[48]&server.FlagQueued != 0}
			return res, nil
		default:
			return nil, fmt.Errorf("unexpected frame 0x%02x in result stream", typ)
		}
	}
}

func decodeCols(p []byte) ([]string, []expr.Kind, error) {
	bad := errors.New("truncated Cols frame")
	if len(p) < 2 {
		return nil, nil, bad
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	cols := make([]string, 0, n)
	kinds := make([]expr.Kind, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return nil, nil, bad
		}
		l := int(binary.LittleEndian.Uint16(p))
		if len(p) < 2+l+2 {
			return nil, nil, bad
		}
		cols = append(cols, string(p[2:2+l]))
		kinds = append(kinds, expr.Kind(p[2+l])) // p[2+l+1] is the decimal scale
		p = p[2+l+2:]
	}
	return cols, kinds, nil
}

// sumBinaryRows walks a Rows payload row by row (fixed 8-byte datums,
// strings length-prefixed) and adds each row's bytes to the checksum.
func sumBinaryRows(p []byte, kinds []expr.Kind, sum *checksum) (int, error) {
	bad := errors.New("truncated Rows frame")
	if len(p) < 4 {
		return 0, bad
	}
	n := int(binary.LittleEndian.Uint32(p))
	off := 4
	for i := 0; i < n; i++ {
		start := off
		for _, k := range kinds {
			if k == expr.KString {
				if off+4 > len(p) {
					return 0, bad
				}
				off += 4 + int(binary.LittleEndian.Uint32(p[off:]))
			} else {
				off += 8
			}
			if off > len(p) {
				return 0, bad
			}
		}
		sum.addRow(p[start:off])
	}
	if off != len(p) {
		return 0, fmt.Errorf("%d trailing bytes in Rows frame", len(p)-off)
	}
	return n, nil
}

// appendBinaryRow encodes one row the way the server's Rows frames do;
// the oracle builds its reference checksums with it.
func appendBinaryRow(b []byte, row []expr.Datum, types []expr.Type) []byte {
	for j, d := range row {
		switch types[j].Kind {
		case expr.KFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.F))
		case expr.KString:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(d.S)))
			b = append(b, d.S...)
		default:
			b = binary.LittleEndian.AppendUint64(b, uint64(d.I))
		}
	}
	return b
}

// ---- HTTP / NDJSON ----

// ndjsonClient posts to /query and reads the streamed lines.
type ndjsonClient struct {
	url  string
	hc   *http.Client
	keep bool
}

func newNDJSONClient(addr string) *ndjsonClient {
	return &ndjsonClient{url: "http://" + addr + "/query",
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (h *ndjsonClient) close() { h.hc.CloseIdleConnections() }

func (h *ndjsonClient) do(req server.Request) (*response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	res := &response{sent: time.Now()}
	hr, err := h.hc.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		return nil, fmt.Errorf("http %d: %s", hr.StatusCode, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(hr.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("stream ended before the trailer: %w", err)
		}
		at := time.Now()
		switch {
		case bytes.HasPrefix(line, []byte(`{"rows":`)):
			if res.firstRows.IsZero() {
				res.firstRows = at
			}
			n, err := sumJSONRows(line, &res.sum)
			if err != nil {
				return nil, err
			}
			res.rows += n
			res.rowBytes += int64(len(line))
			if h.keep {
				res.payloads = append(res.payloads, line)
			}
		case bytes.HasPrefix(line, []byte(`{"cols":`)):
			var hdr struct{ Cols []string }
			if err := json.Unmarshal(line, &hdr); err != nil {
				return nil, fmt.Errorf("header line: %w", err)
			}
			res.cols = hdr.Cols
		default:
			var tr struct {
				Done  bool
				Error string
				Stats *server.WireStats
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				return nil, fmt.Errorf("trailer line: %w", err)
			}
			if tr.Error != "" {
				return nil, errors.New(tr.Error)
			}
			if !tr.Done || tr.Stats == nil {
				return nil, fmt.Errorf("unexpected line %.60q", line)
			}
			res.done, res.stats = at, *tr.Stats
			return res, nil
		}
	}
}

// sumJSONRows scans one {"rows":[[...],[...]]} line and adds the raw
// bytes between each row's brackets to the checksum. Cells are JSON
// strings, so brackets inside them are skipped by tracking string state.
func sumJSONRows(line []byte, sum *checksum) (int, error) {
	depth, inStr, start, n := 0, false, 0, 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[':
			depth++
			if depth == 2 {
				start = i + 1
			}
		case ']':
			if depth == 2 {
				sum.addRow(line[start:i])
				n++
			}
			depth--
		}
	}
	if depth != 0 || inStr {
		return 0, fmt.Errorf("malformed rows line %.60q", line)
	}
	return n, nil
}

// appendJSONRow renders one row of formatted cells the way the server's
// NDJSON chunks do, without the surrounding brackets.
func appendJSONRow(b []byte, cells []string) ([]byte, error) {
	enc, err := json.Marshal(cells)
	if err != nil {
		return nil, err
	}
	return append(b, enc[1:len(enc)-1]...), nil
}
