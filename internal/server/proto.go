// Package server is the query service front end: an HTTP/JSON endpoint
// that streams results as NDJSON, and a length-prefixed binary protocol
// for lower overhead. Both speak to the same aqe.DB through per-tenant
// (HTTP) or per-connection (binary) sessions, so PREPARE / EXECUTE /
// DEALLOCATE and the plan-fingerprint cache work identically over the
// wire and in process.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"aqe/internal/expr"
)

// Binary protocol. Every frame is
//
//	[u32 n][u8 type][payload, n-1 bytes]
//
// with n = 1 + len(payload), little endian. Frames larger than the
// server's MaxFrame (default 16 MiB) are rejected and close the
// connection; so do malformed payloads. Statement-level errors (bad SQL,
// unknown prepared name, cancelled query) are ErrorMsg frames and keep
// the connection alive.
const (
	// Client -> server.
	MsgHello      = 0x01 // [u16 len][tenant]
	MsgQuery      = 0x02 // [u32 timeout_ms][sql]
	MsgPrepare    = 0x03 // [u16 len][name][sql]
	MsgExecute    = 0x04 // [u32 timeout_ms][u16 len][name][u16 argc]{[u32 len][literal]}*
	MsgDeallocate = 0x05 // [u16 len][name]
	MsgTPCH       = 0x06 // [u32 timeout_ms][u32 query#]

	// Server -> client.
	MsgCols  = 0x81 // [u16 ncols]{[u16 len][name][u8 kind][u8 scale]}*
	MsgRows  = 0x82 // [u32 nrows] then row-major datums (see readDatum)
	MsgDone  = 0x83 // [u64 rows][6 x i64 ns: translate compile exec wait queue total][u8 flags]
	MsgError = 0x84 // [utf8 message]
	MsgOK    = 0x85 // ack for Hello / Prepare / Deallocate
)

// Done-frame flag bits.
const (
	FlagCacheHit = 1 << 0
	FlagQueued   = 1 << 1
)

// DefaultMaxFrame caps a single frame (either direction).
const DefaultMaxFrame = 16 << 20

// WireStats is the statistics trailer both protocols report: the binary
// Done frame carries exactly these fields, and the HTTP trailer embeds
// them as JSON. TotalNS runs until the last row was handed to the socket,
// so for a large result it includes what the client took to read it.
type WireStats struct {
	Rows        int64 `json:"rows"`
	TranslateNS int64 `json:"translate_ns"`
	CompileNS   int64 `json:"compile_ns"`
	ExecNS      int64 `json:"exec_ns"`
	WaitNS      int64 `json:"wait_ns"`
	TotalNS     int64 `json:"total_ns"`
	CacheHit    bool  `json:"cache_hit"`
	Queued      bool  `json:"queued"`
}

// writeFrame emits one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, enforcing the size cap.
func readFrame(r io.Reader, maxFrame int) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 {
		return 0, nil, fmt.Errorf("server: zero-length frame")
	}
	if int64(n) > int64(maxFrame) {
		return 0, nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// frameBuf builds a frame payload incrementally.
type frameBuf struct{ b []byte }

func (f *frameBuf) u8(v byte)   { f.b = append(f.b, v) }
func (f *frameBuf) u16(v int)   { f.b = binary.LittleEndian.AppendUint16(f.b, uint16(v)) }
func (f *frameBuf) u32(v int)   { f.b = binary.LittleEndian.AppendUint32(f.b, uint32(v)) }
func (f *frameBuf) u64(v int64) { f.b = binary.LittleEndian.AppendUint64(f.b, uint64(v)) }
func (f *frameBuf) str16(s string) {
	f.u16(len(s))
	f.b = append(f.b, s...)
}
func (f *frameBuf) str32(s string) {
	f.u32(len(s))
	f.b = append(f.b, s...)
}

// frameReader decodes a frame payload with bounds checking: every getter
// fails softly by setting err, so callers validate once at the end and
// malformed frames can never index out of range.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (f *frameReader) fail() {
	if f.err == nil {
		f.err = fmt.Errorf("server: truncated frame payload")
	}
}

func (f *frameReader) u8() byte {
	if f.err != nil || f.off+1 > len(f.b) {
		f.fail()
		return 0
	}
	v := f.b[f.off]
	f.off++
	return v
}

func (f *frameReader) u16() int {
	if f.err != nil || f.off+2 > len(f.b) {
		f.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(f.b[f.off:])
	f.off += 2
	return int(v)
}

func (f *frameReader) u32() int {
	if f.err != nil || f.off+4 > len(f.b) {
		f.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(f.b[f.off:])
	f.off += 4
	return int(v)
}

func (f *frameReader) u64() int64 {
	if f.err != nil || f.off+8 > len(f.b) {
		f.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(f.b[f.off:])
	f.off += 8
	return int64(v)
}

func (f *frameReader) bytes(n int) []byte {
	if f.err != nil || n < 0 || f.off+n > len(f.b) || f.off+n < f.off {
		f.fail()
		return nil
	}
	v := f.b[f.off : f.off+n]
	f.off += n
	return v
}

func (f *frameReader) str16() string { return string(f.bytes(f.u16())) }
func (f *frameReader) str32() string { return string(f.bytes(f.u32())) }

// done reports decode success: no error and no trailing garbage.
func (f *frameReader) done() error {
	if f.err != nil {
		return f.err
	}
	if f.off != len(f.b) {
		return fmt.Errorf("server: %d trailing bytes in frame payload", len(f.b)-f.off)
	}
	return nil
}

// readDatum decodes one datum of the binary row encoding: floats as IEEE
// bits, strings length-prefixed, everything else (ints, decimals, dates,
// chars, bools) as their canonical int64 — an output record's slots, with
// each string's bytes inlined where its (address, length) was.
func readDatum(f *frameReader, t expr.Type) expr.Datum {
	switch t.Kind {
	case expr.KFloat:
		return expr.Datum{F: math.Float64frombits(uint64(f.u64()))}
	case expr.KString:
		return expr.Datum{S: f.str32()}
	default:
		return expr.Datum{I: f.u64()}
	}
}
