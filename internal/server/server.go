package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"aqe"
	"aqe/internal/asm"
	"aqe/internal/exec"
	"aqe/internal/expr"
)

// Options configures a Server.
type Options struct {
	// DB is the database the server fronts (required).
	DB *aqe.DB
	// MaxFrame caps a single binary-protocol frame in either direction
	// (default 16 MiB).
	MaxFrame int
	// DefaultTimeout bounds requests that carry no deadline of their own
	// (0 = unbounded).
	DefaultTimeout time.Duration
	// ChunkRows is the streaming chunk size: rows per NDJSON line / Rows
	// frame (default 256).
	ChunkRows int
}

// Server serves a DB over HTTP/JSON and the binary protocol. Zero or
// more listeners of each kind may be attached; Shutdown drains them all
// gracefully (in-flight queries finish, new work is refused).
type Server struct {
	db   *aqe.DB
	opts Options

	mu       sync.Mutex
	sessions map[string]*aqe.Session // HTTP prepared statements, per tenant
	conns    map[*binConn]struct{}
	httpSrvs []*http.Server
	binLns   []net.Listener

	draining atomic.Bool
	binWG    sync.WaitGroup // binary connection handlers
}

// New creates a server for the given database.
func New(opts Options) *Server {
	if opts.DB == nil {
		panic("server: Options.DB is required")
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	if opts.ChunkRows <= 0 {
		opts.ChunkRows = 256
	}
	return &Server{
		db:       opts.DB,
		opts:     opts,
		sessions: map[string]*aqe.Session{},
		conns:    map[*binConn]struct{}{},
	}
}

// session returns the shared session for a tenant, creating it on first
// use. HTTP is stateless per request, so prepared statements live at
// tenant scope; the binary protocol gets a private session per
// connection instead.
func (s *Server) session(tenant string) *aqe.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[tenant]
	if !ok {
		sess = s.db.NewSession(tenant)
		s.sessions[tenant] = sess
	}
	return sess
}

// reqCtx derives the request context: the caller's timeout if one was
// sent, else the server default.
func (s *Server) reqCtx(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// errDraining refuses new work during shutdown.
var errDraining = errors.New("server: draining")

// writeDeadliner is the response side of a request's connection: a
// net.Conn, or an http.ResponseController.
type writeDeadliner interface {
	SetWriteDeadline(time.Time) error
}

// errorGrace is how long past the request deadline the connection stays
// writable: time for the query to notice the cancellation (one morsel)
// and for the error that reports it to go out.
const errorGrace = 250 * time.Millisecond

// guarded is the single choke point every wire request goes through:
// drain check, per-request deadline, panic containment. Nothing past it
// can leak an admission ticket — the engine releases tickets on unwind,
// and the recover here stops the unwind from killing the server.
//
// The deadline also bounds the response's writes, once per request: the
// context can cancel the query but not wake a handler that sits in a
// socket write to a client that stopped reading, and with it the pinned
// result. The write then fails, which ends the request like a disconnect.
// Whoever owns conn clears the deadline after the request's last write.
func (s *Server) guarded(ctx context.Context, timeoutMS int, conn writeDeadliner, fn func(ctx context.Context) (*aqe.Result, error)) (res *aqe.Result, err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	ctx, cancel := s.reqCtx(ctx, timeoutMS)
	defer cancel()
	if d, ok := ctx.Deadline(); ok {
		// Unsupported only by a writer that is not a socket (a test's
		// recorder), which cannot stall either.
		_ = conn.SetWriteDeadline(d.Add(errorGrace))
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("server: internal error: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(ctx)
}

// runRequest executes one decoded request against a session; the result
// rows go to emit (a protocol's encoder) as the engine produces them.
func (s *Server) runRequest(ctx context.Context, sess *aqe.Session, req *Request, conn writeDeadliner, emit func(aqe.Rows) error) (*aqe.Result, error) {
	return s.guarded(ctx, req.TimeoutMS, conn, func(ctx context.Context) (*aqe.Result, error) {
		switch {
		case req.TPCH != 0:
			if req.TPCH < 1 || req.TPCH > 22 {
				return nil, fmt.Errorf("server: tpch query number %d out of range 1-22", req.TPCH)
			}
			return sess.ExecQueryTo(ctx, s.db.TPCHQuery(req.TPCH), emit)
		case req.SQL != "":
			return sess.ExecTo(ctx, req.SQL, emit)
		default:
			return nil, errors.New(`server: request needs "sql" or "tpch"`)
		}
	})
}

// Request is the HTTP request body (POST /query). Exactly one of SQL or
// TPCH must be set; SQL accepts SELECT as well as PREPARE / EXECUTE /
// DEALLOCATE statements.
type Request struct {
	SQL       string `json:"sql,omitempty"`
	TPCH      int    `json:"tpch,omitempty"`
	Tenant    string `json:"tenant,omitempty"` // or the X-AQE-Tenant header
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// header / trailer are the first and last NDJSON stream lines; between
// them come chunk lines, {"rows":[["cell",...],...]}, which ndjsonStream
// builds by hand.
type wireHeader struct {
	Cols  []string `json:"cols"`
	Types []string `json:"types"`
}

type wireTrailer struct {
	Done  bool       `json:"done"`
	Error string     `json:"error,omitempty"`
	Stats *WireStats `json:"stats,omitempty"`
}

// wireStatsOf projects engine stats into the trailer form.
func wireStatsOf(res *aqe.Result) *WireStats {
	st := res.Stats
	return &WireStats{
		Rows:        st.Rows,
		TranslateNS: st.Translate.Nanoseconds(),
		CompileNS:   st.Compile.Nanoseconds(),
		ExecNS:      st.Exec.Nanoseconds(),
		WaitNS:      st.WaitTime.Nanoseconds(),
		TotalNS:     st.Total.Nanoseconds(),
		CacheHit:    st.CacheHit,
		Queued:      st.Queued,
	}
}

// Handler returns the HTTP handler: POST /query (NDJSON stream), GET
// /stats (admission, cache and executable-memory counters), GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleQuery streams one query result as NDJSON: a header line with
// column names and types, then chunks of formatted rows (written while
// the query's final pipeline is still running when nothing has to be
// sorted first, and flushed as they are written), then a trailer line
// with either the stats or the error. The header goes out with the first
// chunk, so an error before the first row is a plain HTTP error; one
// after it arrives in the trailer, since the status line is long gone.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.opts.MaxFrame)))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-AQE-Tenant")
	}
	st := &ndjsonStream{w: w, chunk: s.opts.ChunkRows}
	// net/http clears the write deadline itself once the response is out.
	res, err := s.runRequest(r.Context(), s.session(req.Tenant), &req,
		http.NewResponseController(w), st.emit)
	st.finish(res, err)
}

// ndjsonStream encodes one result as NDJSON lines into one buffer reused
// from chunk to chunk, a line per ChunkRows rows, straight from the
// output records: numbers and dates through the append formatters,
// strings through appendJSONString. Nothing is allocated per row or per
// cell.
type ndjsonStream struct {
	w     http.ResponseWriter
	chunk int
	buf   []byte // the pending chunk line
	n     int    // rows in it
	began bool   // the header line is out
}

// begin writes the header line.
func (st *ndjsonStream) begin(cols []string, colTypes []expr.Type) error {
	st.began = true
	types := make([]string, len(colTypes))
	for i, t := range colTypes {
		types[i] = t.String()
	}
	st.w.Header().Set("Content-Type", "application/x-ndjson")
	return st.line(wireHeader{Cols: cols, Types: types})
}

// line writes v as one JSON line (header and trailer; chunk lines are
// built in buf).
func (st *ndjsonStream) line(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = st.w.Write(append(b, '\n'))
	return err
}

// emit appends a window of rows to the stream, writing every chunk line
// that fills up, and flushes what was written to the client.
func (st *ndjsonStream) emit(w aqe.Rows) error {
	rs := w.Set()
	if !st.began {
		if err := st.begin(rs.Cols, rs.Types); err != nil {
			return err
		}
	}
	buf := st.buf
	for i, n := 0, w.Len(); i < n; i++ {
		if st.n == 0 {
			buf = append(buf[:0], `{"rows":[[`...)
		} else {
			buf = append(buf, ',', '[')
		}
		rec := w.Rec(i)
		for c, t := range rs.Types {
			if c > 0 {
				buf = append(buf, ',')
			}
			raw, str := rs.Cell(rec, c)
			switch t.Kind {
			case expr.KString:
				buf = appendJSONString(buf, str)
			case expr.KChar:
				var ch [utf8.UTFMax]byte
				buf = appendJSONString(buf, exec.AppendFormat(ch[:0], raw, t))
			default:
				// Digits, signs, points, NaN/Inf, true/false: nothing
				// JSON would escape.
				buf = append(buf, '"')
				buf = exec.AppendFormat(buf, raw, t)
				buf = append(buf, '"')
			}
		}
		buf = append(buf, ']')
		if st.n++; st.n == st.chunk {
			st.buf = buf
			if err := st.writeChunk(); err != nil {
				return err
			}
		}
	}
	st.buf = buf
	st.flush()
	return nil
}

// writeChunk closes and writes the pending chunk line.
func (st *ndjsonStream) writeChunk() error {
	st.n = 0
	st.buf = append(st.buf, ']', '}', '\n')
	_, err := st.w.Write(st.buf)
	return err
}

func (st *ndjsonStream) flush() {
	if f, ok := st.w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish ends the response: the last partial chunk and the stats trailer,
// or the error — as an HTTP status if nothing was streamed yet, in the
// trailer otherwise. Write errors are dropped here: the client is gone,
// and the query already ended.
func (st *ndjsonStream) finish(res *aqe.Result, err error) {
	if err != nil && !st.began {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, errDraining) {
			code = http.StatusServiceUnavailable
		}
		http.Error(st.w, err.Error(), code)
		return
	}
	if err != nil {
		// The rows of an unfinished chunk are dropped: the result is void.
		st.line(wireTrailer{Error: err.Error()})
		st.flush()
		return
	}
	if !st.began {
		st.begin(res.Cols, res.Types)
	}
	if st.n > 0 {
		st.writeChunk()
	}
	st.line(wireTrailer{Done: true, Stats: wireStatsOf(res)})
	st.flush()
}

// appendJSONString appends s as a JSON string literal, byte for byte what
// encoding/json's default encoder writes (the wire format this replaced,
// and what clients checksum): HTML-sensitive characters, control
// characters and U+2028/U+2029 escaped, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(dst, s []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// handleStats reports server-wide admission and plan-cache counters and
// the executable memory the process has mapped for native code.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	eng := s.db.Engine()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"admission": eng.SchedStats(),
		"cache":     eng.CacheStats(),
		"exec_mem":  asm.ExecMemory(),
	})
}

// ServeHTTP attaches an HTTP listener and blocks serving it until
// Shutdown (which returns http.ErrServerClosed here) or a listener
// error.
func (s *Server) ServeHTTP(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrvs = append(s.httpSrvs, srv)
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown drains the server: new requests are refused, in-flight
// queries run to completion (bounded by ctx), idle binary connections
// are closed immediately, and busy ones are force-closed only if ctx
// expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	httpSrvs := append([]*http.Server(nil), s.httpSrvs...)
	binLns := append([]net.Listener(nil), s.binLns...)
	conns := make([]*binConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, ln := range binLns {
		ln.Close()
	}
	// Idle binary connections sit in a frame read; closing the socket is
	// the only way to wake them. Busy ones get to finish their request
	// (the handler exits after it, seeing the drain flag).
	for _, c := range conns {
		if !c.busy.Load() {
			c.c.Close()
		}
	}
	var err error
	for _, srv := range httpSrvs {
		if e := srv.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	done := make(chan struct{})
	go func() { s.binWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		for _, c := range conns {
			c.c.Close()
		}
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}
