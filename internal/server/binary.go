package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"aqe"
	"aqe/internal/exec"
	"aqe/internal/expr"
)

// binConn is one binary-protocol connection: a buffered socket plus a
// private session (tenant set by Hello, prepared statements live and die
// with the connection).
type binConn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess *aqe.Session
	busy atomic.Bool // a request is running (drain waits for it)
	enc  []byte      // the pending Rows frame, reused across results
}

// ServeBinary attaches a binary-protocol listener and blocks accepting
// connections until Shutdown closes it or accept fails.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.mu.Lock()
	s.binLns = append(s.binLns, ln)
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		bc := &binConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c),
			sess: s.db.NewSession("")}
		s.mu.Lock()
		s.conns[bc] = struct{}{}
		s.mu.Unlock()
		s.binWG.Add(1)
		go func() {
			defer s.binWG.Done()
			s.serveConn(bc)
		}()
	}
}

// serveConn runs the per-connection frame loop. Protocol violations
// (oversized or truncated frames, unknown types) send an Error frame and
// close the connection; statement errors send an Error frame and keep
// it. Every decoded request runs through runRequest, so panics and
// deadlines are handled exactly as over HTTP — a malformed frame can
// never leak an admission ticket because it is rejected before any
// execution starts.
func (s *Server) serveConn(bc *binConn) {
	defer func() {
		bc.c.Close()
		s.mu.Lock()
		delete(s.conns, bc)
		s.mu.Unlock()
	}()
	for {
		typ, payload, err := readFrame(bc.br, s.opts.MaxFrame)
		if err != nil {
			return // disconnect or framing error: nothing sane to send
		}
		bc.busy.Store(true)
		fatal := s.serveFrame(bc, typ, payload)
		err = bc.bw.Flush()
		// The request's write deadline, if it had one, ends with it.
		bc.c.SetWriteDeadline(time.Time{})
		bc.busy.Store(false)
		if fatal || err != nil || s.draining.Load() {
			return
		}
	}
}

// serveFrame dispatches one client frame; true means close the
// connection.
func (s *Server) serveFrame(bc *binConn, typ byte, payload []byte) bool {
	fr := &frameReader{b: payload}
	switch typ {
	case MsgHello:
		tenant := fr.str16()
		if err := fr.done(); err != nil {
			return bc.protoErr(err)
		}
		bc.sess = s.db.NewSession(tenant)
		writeFrame(bc.bw, MsgOK, nil)
		return false

	case MsgQuery:
		timeoutMS := fr.u32()
		sql := string(fr.bytes(len(payload) - fr.off))
		if err := fr.done(); err != nil {
			return bc.protoErr(err)
		}
		st := &binStream{bc: bc, chunk: s.opts.ChunkRows}
		res, rerr := s.runRequest(context.Background(), bc.sess,
			&Request{SQL: sql, TimeoutMS: timeoutMS}, bc.c, st.emit)
		return st.finish(res, rerr)

	case MsgTPCH:
		timeoutMS := fr.u32()
		n := fr.u32()
		if err := fr.done(); err != nil {
			return bc.protoErr(err)
		}
		st := &binStream{bc: bc, chunk: s.opts.ChunkRows}
		res, rerr := s.runRequest(context.Background(), bc.sess,
			&Request{TPCH: n, TimeoutMS: timeoutMS}, bc.c, st.emit)
		return st.finish(res, rerr)

	case MsgPrepare:
		name := fr.str16()
		sql := string(fr.bytes(len(payload) - fr.off))
		if err := fr.done(); err != nil {
			return bc.protoErr(err)
		}
		if s.draining.Load() {
			return bc.stmtErr(errDraining)
		}
		if err := bc.sess.Prepare(name, sql); err != nil {
			return bc.stmtErr(err)
		}
		writeFrame(bc.bw, MsgOK, nil)
		return false

	case MsgExecute:
		timeoutMS := fr.u32()
		name := fr.str16()
		argc := fr.u16()
		if argc > maxExecuteArgs {
			return bc.protoErr(fmt.Errorf("server: %d EXECUTE arguments exceed the cap of %d", argc, maxExecuteArgs))
		}
		args := make([]*aqe.Value, 0, argc)
		for i := 0; i < argc && fr.err == nil; i++ {
			lit := fr.str32()
			if fr.err != nil {
				break
			}
			v, err := aqe.ParseLiteral(lit)
			if err != nil {
				return bc.stmtErr(fmt.Errorf("argument $%d: %w", i+1, err))
			}
			args = append(args, v)
		}
		if err := fr.done(); err != nil {
			return bc.protoErr(err)
		}
		st := &binStream{bc: bc, chunk: s.opts.ChunkRows}
		res, rerr := s.guarded(context.Background(), timeoutMS, bc.c,
			func(ctx context.Context) (*aqe.Result, error) {
				return bc.sess.ExecuteTo(ctx, name, args, st.emit)
			})
		return st.finish(res, rerr)

	case MsgDeallocate:
		name := fr.str16()
		if err := fr.done(); err != nil {
			return bc.protoErr(err)
		}
		if err := bc.sess.Deallocate(name); err != nil {
			return bc.stmtErr(err)
		}
		writeFrame(bc.bw, MsgOK, nil)
		return false

	default:
		return bc.protoErr(fmt.Errorf("server: unknown frame type 0x%02x", typ))
	}
}

// maxExecuteArgs caps binding-list fan-out well above the engine's own
// 64-parameter limit, so a hostile argc can't drive allocation.
const maxExecuteArgs = 256

// protoErr reports a protocol violation and asks for the connection to
// close.
func (bc *binConn) protoErr(err error) bool {
	writeFrame(bc.bw, MsgError, []byte(err.Error()))
	return true
}

// stmtErr reports a statement-level failure; the connection stays up.
func (bc *binConn) stmtErr(err error) bool {
	writeFrame(bc.bw, MsgError, []byte(err.Error()))
	return false
}

// binStream writes one result to a binary connection: a Cols frame, Rows
// frames of ChunkRows rows each, then Done — or, at whatever point the
// query failed, one Error frame. Rows frames are encoded straight from
// the output records into the connection's reused buffer: the 8-byte
// slots as they are, strings length-prefixed from where they lie. The
// Cols frame goes out with the first rows (a failure before them answers
// with the Error frame alone), and the engine hands rows over while the
// final pipeline is still running when nothing has to be sorted first.
type binStream struct {
	bc    *binConn
	chunk int
	n     int  // rows in the pending Rows frame
	began bool // the Cols frame is out
}

// rowsFrameHdr is the space a Rows frame reserves ahead of its rows:
// [u32 frame length][u8 type][u32 nrows], patched when the frame closes.
const rowsFrameHdr = 9

// begin writes the Cols frame.
func (st *binStream) begin(names []string, types []expr.Type) error {
	st.began = true
	var cols frameBuf
	cols.u16(len(names))
	for i, name := range names {
		cols.str16(name)
		cols.u8(byte(types[i].Kind))
		cols.u8(byte(types[i].Scale))
	}
	return writeFrame(st.bc.bw, MsgCols, cols.b)
}

// emit appends a window of rows to the stream, writing every Rows frame
// that fills up, and flushes what was written to the client. A write
// error is returned, which cancels the query.
func (st *binStream) emit(w aqe.Rows) error {
	rs := w.Set()
	if !st.began {
		if err := st.begin(rs.Cols, rs.Types); err != nil {
			return err
		}
	}
	buf := st.bc.enc
	for i, n := 0, w.Len(); i < n; i++ {
		if st.n == 0 {
			buf = append(buf[:0], make([]byte, rowsFrameHdr)...)
		}
		rec := w.Rec(i)
		for c, t := range rs.Types {
			raw, str := rs.Cell(rec, c)
			if t.Kind == expr.KString {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(str)))
				buf = append(buf, str...)
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, raw)
			}
		}
		if st.n++; st.n == st.chunk {
			st.bc.enc = buf
			if err := st.writeRows(); err != nil {
				return err
			}
		}
	}
	st.bc.enc = buf
	return st.bc.bw.Flush()
}

// writeRows closes and writes the pending Rows frame.
func (st *binStream) writeRows() error {
	buf := st.bc.enc
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = MsgRows
	binary.LittleEndian.PutUint32(buf[5:], uint32(st.n))
	st.n = 0
	_, err := st.bc.bw.Write(buf)
	return err
}

// finish ends the result: the last partial Rows frame and Done, or one
// Error frame, and reports whether the connection must close — after a
// write error (the buffered writer keeps its first one, so a client that
// went away mid-stream fails here too), and on a draining error so
// clients re-dial elsewhere. A statement error, before or after the first
// rows, keeps it open.
func (st *binStream) finish(res *aqe.Result, err error) bool {
	bw := st.bc.bw
	if err != nil {
		werr := writeFrame(bw, MsgError, []byte(err.Error()))
		return werr != nil || errors.Is(err, errDraining)
	}
	if !st.began {
		if st.begin(res.Cols, res.Types) != nil {
			return true
		}
	}
	if st.n > 0 && st.writeRows() != nil {
		return true
	}
	ws := wireStatsOf(res)
	var f frameBuf
	f.u64(ws.Rows)
	f.u64(ws.TranslateNS)
	f.u64(ws.CompileNS)
	f.u64(ws.ExecNS)
	f.u64(ws.WaitNS)
	f.u64(ws.TotalNS)
	flags := byte(0)
	if ws.CacheHit {
		flags |= FlagCacheHit
	}
	if ws.Queued {
		flags |= FlagQueued
	}
	f.u8(flags)
	return writeFrame(bw, MsgDone, f.b) != nil
}

// decodeCols parses a Cols payload (shared with the client).
func decodeCols(payload []byte) (cols []string, types []expr.Type, err error) {
	fr := &frameReader{b: payload}
	n := fr.u16()
	for i := 0; i < n && fr.err == nil; i++ {
		cols = append(cols, fr.str16())
		k := fr.u8()
		sc := fr.u8()
		if k > byte(expr.KString) {
			return nil, nil, fmt.Errorf("server: unknown type kind %d", k)
		}
		types = append(types, expr.Type{Kind: expr.Kind(k), Scale: int(sc)})
	}
	if err := fr.done(); err != nil {
		return nil, nil, err
	}
	return cols, types, nil
}

// decodeRows parses a Rows payload against the announced column types
// (shared with the client).
func decodeRows(payload []byte, types []expr.Type) ([][]expr.Datum, error) {
	fr := &frameReader{b: payload}
	n := fr.u32()
	rows := make([][]expr.Datum, 0, min(n, 4096))
	for i := 0; i < n && fr.err == nil; i++ {
		row := make([]expr.Datum, len(types))
		for j, t := range types {
			row[j] = readDatum(fr, t)
		}
		rows = append(rows, row)
	}
	if err := fr.done(); err != nil {
		return nil, err
	}
	return rows, nil
}

// decodeDone parses a Done payload (shared with the client).
func decodeDone(payload []byte) (*WireStats, error) {
	fr := &frameReader{b: payload}
	ws := &WireStats{
		Rows:        fr.u64(),
		TranslateNS: fr.u64(),
		CompileNS:   fr.u64(),
		ExecNS:      fr.u64(),
		WaitNS:      fr.u64(),
		TotalNS:     fr.u64(),
	}
	flags := fr.u8()
	if err := fr.done(); err != nil {
		return nil, err
	}
	ws.CacheHit = flags&FlagCacheHit != 0
	ws.Queued = flags&FlagQueued != 0
	return ws, nil
}

// FormatRow renders a decoded binary row with the engine's display
// formatting — the same text the HTTP protocol sends, which is what
// makes the two protocols byte-comparable.
func FormatRow(row []expr.Datum, types []expr.Type) []string {
	out := make([]string, len(row))
	for j, d := range row {
		out[j] = exec.Format(d, types[j])
	}
	return out
}
