// Package rt is the runtime that generated query code executes against: a
// segmented 64-bit address space backed by Go byte slices, the extern
// function call ABI shared by the bytecode interpreter and native code,
// and the query data structures (hash tables, output buffers,
// string operations) reachable from generated code.
//
// Generated code addresses memory with 64-bit addresses of the form
//
//	segment(16 bits) << 48 | offset(48 bits)
//
// so that table columns, the query-state arena, hash-table payload arenas
// and output buffers can all be read and written directly by generated
// loads and stores — exactly as HyPer's generated machine code reads its
// process address space. Segment 0 is reserved and never mapped, so address
// 0 acts as a null pointer and faults on dereference.
package rt

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// SegShift is the bit position of the segment number within an address.
const SegShift = 48

// OffMask masks the offset bits of an address.
const OffMask = (uint64(1) << SegShift) - 1

// Addr is an address in the segmented query address space.
type Addr = uint64

// Memory is a per-query address space: a table of segments. Reads are
// lock-free; segment additions (table registration at setup, hash-table
// growth and arena chunk allocation mid-pipeline) copy the segment table
// and publish it atomically, so concurrently running workers always see
// a consistent table. A worker can only hold an address into a segment
// that was published before the address was handed to it, which makes the
// copy-on-write scheme race-free.
type Memory struct {
	table atomic.Pointer[[][]byte]
	mu    sync.Mutex
	zero  Addr // shared read-only zero segment (lazily mapped)
}

// NewMemory returns an address space with the null segment mapped to nil.
func NewMemory() *Memory {
	m := &Memory{}
	segs := make([][]byte, 1, 64)
	m.table.Store(&segs)
	return m
}

// AddSegment maps data as a new segment and returns its base address. Safe
// for concurrent use.
func (m *Memory) AddSegment(data []byte) Addr {
	if uint64(len(data)) > OffMask {
		panic("rt: segment too large")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addSegmentLocked(data)
}

func (m *Memory) addSegmentLocked(data []byte) Addr {
	old := *m.table.Load()
	if len(old) >= 1<<16 {
		panic("rt: segment table full")
	}
	segs := make([][]byte, len(old)+1)
	copy(segs, old)
	segs[len(old)] = data
	m.table.Store(&segs)
	return Addr(len(old)) << SegShift
}

// Alloc creates a zeroed segment of n bytes and returns its base address.
func (m *Memory) Alloc(n int) Addr {
	return m.AddSegment(make([]byte, n))
}

// ZeroSeg returns the base of a shared read-only zeroed segment, mapped at
// most once per address space. Empty hash tables publish it as their
// bucket array and filter instead of each allocating a one-bucket table:
// with mask 0 every probe reads a zero bucket head (and a zero filter
// word) from it and terminates immediately. Callers must never write
// through the returned address.
func (m *Memory) ZeroSeg() Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.zero == 0 {
		m.zero = m.addSegmentLocked(make([]byte, 64))
	}
	return m.zero
}

// SetSegment atomically replaces the backing bytes of an existing segment;
// used by hash tables whose bucket arrays grow in place of their segment.
func (m *Memory) SetSegment(addr Addr, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.table.Load()
	segs := make([][]byte, len(old))
	copy(segs, old)
	segs[addr>>SegShift] = data
	m.table.Store(&segs)
}

// Seg returns the backing bytes of the segment containing addr, starting at
// addr's offset. The caller indexes into the result; out-of-range accesses
// fault via the ordinary slice bounds check.
func (m *Memory) Seg(addr Addr) []byte {
	t := *m.table.Load()
	return t[addr>>SegShift][addr&OffMask:]
}

// Segments returns the number of mapped segments (including null).
func (m *Memory) Segments() int { return len(*m.table.Load()) }

// Segs returns the current segment table. The table is immutable once
// published (growth copies it), so callers may hold the returned slice
// across an arbitrary amount of work; they just won't observe segments
// added afterwards. The native tier pins this snapshot while machine code
// runs and re-snapshots after every extern call (the only points where new
// segments can be published to the running worker).
func (m *Memory) Segs() [][]byte { return *m.table.Load() }

// Bytes returns exactly n bytes at addr.
func (m *Memory) Bytes(addr Addr, n int) []byte {
	t := *m.table.Load()
	s := t[addr>>SegShift]
	off := addr & OffMask
	return s[off : off+uint64(n)]
}

// The typed accessors below are used by runtime code (hash tables, output
// decoding); the interpreter and native code inline the equivalent
// operations for speed.

func (m *Memory) Load8(a Addr) uint64 { return uint64(m.Seg(a)[0]) }
func (m *Memory) Load16(a Addr) uint64 {
	return uint64(binary.LittleEndian.Uint16(m.Seg(a)))
}
func (m *Memory) Load32(a Addr) uint64 {
	return uint64(binary.LittleEndian.Uint32(m.Seg(a)))
}
func (m *Memory) Load64(a Addr) uint64 {
	return binary.LittleEndian.Uint64(m.Seg(a))
}
func (m *Memory) LoadF64(a Addr) float64 { return math.Float64frombits(m.Load64(a)) }

func (m *Memory) Store8(a Addr, v uint64) { m.Seg(a)[0] = byte(v) }
func (m *Memory) Store16(a Addr, v uint64) {
	binary.LittleEndian.PutUint16(m.Seg(a), uint16(v))
}
func (m *Memory) Store32(a Addr, v uint64) {
	binary.LittleEndian.PutUint32(m.Seg(a), uint32(v))
}
func (m *Memory) Store64(a Addr, v uint64) {
	binary.LittleEndian.PutUint64(m.Seg(a), v)
}
func (m *Memory) StoreF64(a Addr, v float64) { m.Store64(a, math.Float64bits(v)) }

// Trap is the error raised by generated code for runtime faults the SQL
// semantics define (arithmetic overflow, division by zero). It is thrown as
// a panic from deep inside the interpreter (native code exits to Go first) and
// recovered at the engine's boundaries: a morsel's dispatch and a breaker's
// finalize.
type Trap struct {
	Code TrapCode
}

// TrapCode distinguishes the fault classes.
type TrapCode int

// Trap codes.
const (
	TrapOverflow TrapCode = iota + 1
	TrapDivZero
)

func (t *Trap) Error() string {
	switch t.Code {
	case TrapOverflow:
		return "numeric overflow"
	case TrapDivZero:
		return "division by zero"
	}
	return fmt.Sprintf("query trap (%d)", int(t.Code))
}

// Throw raises a trap; never returns.
func Throw(code TrapCode) {
	panic(&Trap{Code: code})
}

// CatchTrap invokes fn and converts a Trap panic into an error; other
// panics propagate.
func CatchTrap(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*Trap); ok {
				err = t
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}
