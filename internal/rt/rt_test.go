package rt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMemorySegments(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(64)
	b := m.AddSegment(make([]byte, 32))
	if a>>SegShift == b>>SegShift {
		t.Fatal("segments share an id")
	}
	m.Store64(a+8, 0xDEADBEEF)
	if got := m.Load64(a + 8); got != 0xDEADBEEF {
		t.Errorf("load = %#x", got)
	}
	m.Store8(b, 0x7F)
	if got := m.Load8(b); got != 0x7F {
		t.Errorf("load8 = %#x", got)
	}
	m.Store16(b+2, 0xBEEF)
	m.Store32(b+4, 0xCAFEBABE)
	if m.Load16(b+2) != 0xBEEF || m.Load32(b+4) != 0xCAFEBABE {
		t.Error("narrow round-trips failed")
	}
	m.StoreF64(a, 3.25)
	if m.LoadF64(a) != 3.25 {
		t.Error("float round-trip failed")
	}
}

func TestMemoryNullSegmentFaults(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dereferencing null")
		}
	}()
	m := NewMemory()
	m.Load64(0)
}

func TestMemoryConcurrentAppend(t *testing.T) {
	m := NewMemory()
	base := m.Alloc(8)
	done := make(chan bool)
	go func() {
		for i := 0; i < 200; i++ {
			m.Alloc(128)
		}
		done <- true
	}()
	for i := 0; i < 10000; i++ {
		m.Store64(base, uint64(i))
		if got := m.Load64(base); got != uint64(i) {
			t.Errorf("read %d, want %d", got, i)
			break
		}
	}
	<-done
}

func TestArena(t *testing.T) {
	m := NewMemory()
	a := NewArena(m)
	var addrs []Addr
	for i := 0; i < 1000; i++ {
		addr := a.Alloc(24)
		m.Store64(addr, uint64(i))
		addrs = append(addrs, addr)
	}
	if a.Bytes() != 24000 {
		t.Errorf("Bytes = %d", a.Bytes())
	}
	i := 0
	a.Each(24, func(addr Addr) {
		if addr != addrs[i] {
			t.Fatalf("Each order broken at %d", i)
		}
		if m.Load64(addr) != uint64(i) {
			t.Fatalf("value at %d corrupted", i)
		}
		i++
	})
	if i != 1000 {
		t.Errorf("Each visited %d records", i)
	}
}

func TestArenaLargeAlloc(t *testing.T) {
	m := NewMemory()
	a := NewArena(m)
	big := a.Alloc(1 << 20) // larger than the chunk size
	m.Store64(big+(1<<20)-8, 7)
	if m.Load64(big+(1<<20)-8) != 7 {
		t.Error("large alloc broken")
	}
}

func TestJoinHT(t *testing.T) {
	m := NewMemory()
	const tupleSize = 24 // hash, next, key
	stateAddr := m.Alloc(JoinStateBytes)
	h := NewJoinHT(m, 2, tupleSize, 0)
	// Insert 100 tuples from two workers; key = i, hash = weak on purpose
	// to force chains.
	for i := 0; i < 100; i++ {
		w := i % 2
		tup := h.Alloc(w)
		m.Store64(tup, uint64(i%8)) // hash with many collisions
		m.Store64(tup+16, uint64(i))
	}
	h.Finalize(stateAddr, 1, goroutinePfor(1))
	if h.Count != 100 {
		t.Fatalf("Count = %d", h.Count)
	}
	// The published state must let a probe find every key.
	buckets := m.Load64(stateAddr)
	mask := m.Load64(stateAddr + 8)
	if buckets != h.BucketsAddr || mask != h.Mask {
		t.Fatal("state publication wrong")
	}
	found := make(map[uint64]bool)
	for hash := uint64(0); hash < 8; hash++ {
		e := m.Load64(buckets + (hash&mask)*8)
		for e != 0 {
			if m.Load64(e) == hash {
				found[m.Load64(e+16)] = true
			}
			e = m.Load64(e + 8)
		}
	}
	if len(found) != 100 {
		t.Errorf("probe found %d keys, want 100", len(found))
	}
}

func TestJoinHTEmpty(t *testing.T) {
	m := NewMemory()
	stateAddr := m.Alloc(JoinStateBytes)
	h := NewJoinHT(m, 1, 24, 0)
	h.Finalize(stateAddr, 1, goroutinePfor(1))
	buckets := m.Load64(stateAddr)
	mask := m.Load64(stateAddr + 8)
	if got := m.Load64(buckets + (12345&mask)*8); got != 0 {
		t.Errorf("empty table bucket head = %#x", got)
	}
}

func TestAggSetGroupBy(t *testing.T) {
	m := NewMemory()
	q := NewQueryState(m, 2, 16, 64)
	// Entry: [next][hash][key i64 @16][sum @24][count @32]
	entrySize := 40
	keys := []KeyField{{Off: 16}}
	aggs := []AggField{{Kind: AggSum, Off: 24}, {Kind: AggCount, Off: 32}}
	id := q.AddAgg(entrySize, keys, aggs, 0, false)
	set := q.Aggs[id]

	// Simulate generated code: insert/update from two workers.
	update := func(w int, key, val uint64) {
		ht := set.hts[w]
		hash := key*0x9E3779B97F4A7C15 ^ (key >> 7)
		// walk
		bAddr := m.Load64(q.Locals[w])
		mask := m.Load64(q.Locals[w] + 8)
		e := m.Load64(bAddr + (hash&mask)*8)
		for e != 0 {
			if m.Load64(e+8) == hash && m.Load64(e+16) == key {
				break
			}
			e = m.Load64(e)
		}
		if e == 0 {
			e = set.Insert(w, hash)
			m.Store64(e+16, key)
			m.Store64(e+24, AggSum.Init())
			m.Store64(e+32, AggCount.Init())
		}
		m.Store64(e+24, m.Load64(e+24)+val)
		m.Store64(e+32, m.Load64(e+32)+1)
		_ = ht
	}
	// 1000 updates across 10 keys and 2 workers; every key reaches both
	// workers, so Finalize must combine.
	for i := 0; i < 1000; i++ {
		update(i/10%2, uint64(i%10), uint64(i))
	}
	set.Finalize(1, goroutinePfor(1))
	if set.Groups != 10 {
		t.Fatalf("Groups = %d, want 10", set.Groups)
	}
	// Validate sums.
	wantSum := make(map[uint64]uint64)
	wantCnt := make(map[uint64]uint64)
	for i := 0; i < 1000; i++ {
		wantSum[uint64(i%10)] += uint64(i)
		wantCnt[uint64(i%10)]++
	}
	for i := 0; i < set.Groups; i++ {
		e := m.Load64(set.IndexAddr + Addr(i*8))
		key := m.Load64(e + 16)
		if m.Load64(e+24) != wantSum[key] {
			t.Errorf("key %d: sum %d, want %d", key, m.Load64(e+24), wantSum[key])
		}
		if m.Load64(e+32) != wantCnt[key] {
			t.Errorf("key %d: count %d, want %d", key, m.Load64(e+32), wantCnt[key])
		}
	}
}

func TestAggSetScalar(t *testing.T) {
	m := NewMemory()
	q := NewQueryState(m, 3, 16, 64)
	entrySize := 32 // [next][hash][sum @16][min @24]
	aggs := []AggField{{Kind: AggSum, Off: 16}, {Kind: AggMin, Off: 24}}
	id := q.AddAgg(entrySize, nil, aggs, 0, true)
	set := q.Aggs[id]
	for w := 0; w < 3; w++ {
		e := m.Load64(q.Locals[w] + 16)
		if e == 0 {
			t.Fatal("scalar entry not published")
		}
		for i := 1; i <= 10; i++ {
			v := uint64(w*100 + i)
			m.Store64(e+16, m.Load64(e+16)+v)
			if int64(v) < int64(m.Load64(e+24)) {
				m.Store64(e+24, v)
			}
		}
	}
	set.Finalize(1, goroutinePfor(1))
	if set.Groups != 1 {
		t.Fatalf("Groups = %d", set.Groups)
	}
	e := m.Load64(set.IndexAddr)
	wantSum := uint64(0)
	for w := 0; w < 3; w++ {
		for i := 1; i <= 10; i++ {
			wantSum += uint64(w*100 + i)
		}
	}
	if m.Load64(e+16) != wantSum {
		t.Errorf("sum = %d, want %d", m.Load64(e+16), wantSum)
	}
	if m.Load64(e+24) != 1 {
		t.Errorf("min = %d, want 1", m.Load64(e+24))
	}
}

func TestAggCombineOverflowTraps(t *testing.T) {
	err := CatchTrap(func() {
		AggSum.Combine(uint64(int64(1)<<62), uint64(int64(1)<<62))
	})
	if trap, ok := err.(*Trap); !ok || trap.Code != TrapOverflow {
		t.Errorf("expected overflow trap, got %v", err)
	}
}

func TestOutSet(t *testing.T) {
	m := NewMemory()
	s := NewOutSet(m, 2, 16)
	for i := 0; i < 50; i++ {
		addr := s.Alloc(i % 2)
		m.Store64(addr, uint64(i))
		m.Store64(addr+8, uint64(i*i))
	}
	if next := s.Spans(0, 0, func([]byte) { t.Error("records visible before any Publish") }); next != 0 {
		t.Fatalf("next = %d before any Publish", next)
	}
	s.Publish(0)
	s.Publish(1)
	sum := uint64(0)
	for w := 0; w < 2; w++ {
		if next := s.Spans(w, 0, func(recs []byte) {
			for ; len(recs) > 0; recs = recs[16:] {
				sum += binary.LittleEndian.Uint64(recs)
			}
		}); next != 25 {
			t.Errorf("worker %d: next = %d, want 25", w, next)
		}
	}
	if sum != 49*50/2 {
		t.Errorf("sum = %d", sum)
	}
}

// TestOutSetWatermark: a reader polling Spans while a writer allocates —
// mostly through the window as generated code bumps it, every third row
// through Alloc — sees only whole published records, every record exactly
// once, across chunk boundaries: the contract result streaming rests on.
// Meaningful under -race: the reader touches arena memory the writer is
// extending.
func TestOutSetWatermark(t *testing.T) {
	const rowSize, total, morsel = 24, 40000, 700 // the growing chunks, then 3 of 256 KiB
	m := NewMemory()
	q, s := windowOutSet(m, 1, rowSize)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			addr := allocRow(q, s, 0, i)
			m.Store64(addr, uint64(i))
			m.Store64(addr+8, ^uint64(i))
			m.Store64(addr+16, uint64(i)*3)
			if (i+1)%morsel == 0 || i == total-1 {
				s.Publish(0)
			}
		}
	}()
	next, want := 0, uint64(0)
	read := func() {
		next = s.Spans(0, next, func(recs []byte) {
			if len(recs)%rowSize != 0 {
				t.Errorf("span of %d bytes is not whole records", len(recs))
			}
			for ; len(recs) >= rowSize; recs = recs[rowSize:] {
				v := binary.LittleEndian.Uint64(recs)
				if v != want || binary.LittleEndian.Uint64(recs[8:]) != ^v || binary.LittleEndian.Uint64(recs[16:]) != v*3 {
					t.Errorf("record %d reads as %d: torn or out of order", want, v)
				}
				want++
			}
		})
	}
	for running := true; running; {
		select {
		case <-s.Ready():
		case <-done:
			running = false
		}
		read()
	}
	if next != total || want != total {
		t.Fatalf("read %d records (next %d), want %d", want, next, total)
	}
}

// TestOutSetGrowth: while arena chunks grow from 4 KiB to 256 KiB, a
// reader locates records from their index alone — for a row size that does
// not divide any chunk (72 B) and one larger than the first chunks (5000 B
// gets a chunk of its own until chunks reach 8 KiB). Two writers, mixing
// the generated bump with Alloc like TestOutSetWatermark, publish at odd
// morsel boundaries while the reader polls both; every record must be read
// once, whole and in order, and the chunk count must be the one the index
// arithmetic predicts. Meaningful under -race.
func TestOutSetGrowth(t *testing.T) {
	for _, rowSize := range []int{72, 5000} {
		t.Run(fmt.Sprint(rowSize), func(t *testing.T) {
			const workers, morsel = 2, 37
			total := (1<<20)/rowSize + 7 // past the growing chunks into full ones
			m := NewMemory()
			q, s := windowOutSet(m, workers, rowSize)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < total; i++ {
						addr := allocRow(q, s, w, i)
						m.Store64(addr, uint64(i))
						m.Store64(addr+Addr(rowSize)-8, ^uint64(i))
						if (i+1)%morsel == 0 || i == total-1 {
							s.Publish(w)
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			next := make([]int, workers)
			read := func() {
				for w := range next {
					want := uint64(next[w])
					next[w] = s.Spans(w, next[w], func(recs []byte) {
						if len(recs)%rowSize != 0 {
							t.Errorf("span of %d bytes is not whole records", len(recs))
						}
						for ; len(recs) >= rowSize; recs = recs[rowSize:] {
							v := binary.LittleEndian.Uint64(recs)
							if v != want || binary.LittleEndian.Uint64(recs[rowSize-8:]) != ^v {
								t.Errorf("worker %d record %d reads as %d: torn or misplaced", w, want, v)
							}
							want++
						}
					})
				}
			}
			for running := true; running; {
				select {
				case <-s.Ready():
				case <-done:
					running = false
				}
				read()
			}
			for w := 0; w < workers; w++ {
				if next[w] != total {
					t.Errorf("worker %d: read %d records, want %d", w, next[w], total)
				}
				last, _ := s.locate(total - 1)
				if got := len(s.bufs[w].arena.chunks); got != last+1 {
					t.Errorf("worker %d: %d chunks, index arithmetic puts the last record in chunk %d", w, got, last)
				}
			}
		})
	}
}

// genBump allocates size bytes from the window at win the way generated
// code does (codegen's bumpAlloc): load next and end, add, compare
// unsigned, store next back — or call refill, the out_alloc / ht_alloc
// extern, when the record does not fit.
func genBump(m *Memory, win Addr, size int, refill func() Addr) Addr {
	next, end := m.Load64(win), m.Load64(win+8)
	if next+uint64(size) <= end {
		m.Store64(win, next+uint64(size))
		return next
	}
	return refill()
}

// winOff is where the window tests place the bump windows in a local
// block: past a slot of something else.
const winOff = 24

// windowOutSet returns an output set registered the way the engine
// registers one: its windows in the workers' local blocks.
func windowOutSet(m *Memory, workers, rowSize int) (*QueryState, *OutSet) {
	q := NewQueryState(m, workers, 8, winOff+WindowBytes)
	return q, q.Outs[q.AddOut(rowSize, winOff)]
}

// allocRow allocates row i of worker w: every third through Alloc, the
// rest through the generated bump.
func allocRow(q *QueryState, s *OutSet, w, i int) Addr {
	if i%3 == 2 {
		return s.Alloc(w)
	}
	return genBump(q.Mem, q.Locals[w]+winOff, s.RowSize, func() Addr { return s.Refill(w) })
}

// TestArenaWindow: records allocated by randomly interleaving the
// generated bump (Store64 into the window) with Alloc are exactly the
// records every reader sees, in allocation order — Bytes, EachChunk, Each,
// and an output set's Publish and Spans — across chunk boundaries, for a
// record larger than the largest chunk, and for no records at all. The
// refill extern runs once per chunk and never otherwise.
func TestArenaWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, size := range []int{24, 72, 5000, maxChunkSize + 8} {
		for _, n := range []int{0, 1, 3, 171, 5000} {
			if size*n > 4<<20 {
				continue
			}
			t.Run(fmt.Sprintf("size%d/n%d", size, n), func(t *testing.T) {
				m := NewMemory()
				q := NewQueryState(m, 2, 8, winOff+2*WindowBytes)
				s := q.Outs[q.AddOut(size, winOff)]
				h := q.Joins[q.AddJoin(size, 0, winOff+WindowBytes)]
				refills := 0
				for i := 0; i < n; i++ {
					var out, tup Addr
					if rng.Intn(4) == 0 {
						out, tup = s.Alloc(1), h.Alloc(1)
					} else {
						out = genBump(m, q.Locals[1]+winOff, size, func() Addr { refills++; return s.Refill(1) })
						tup = genBump(m, q.Locals[1]+winOff+WindowBytes, size, func() Addr { refills++; return h.Refill(1) })
					}
					for _, a := range []Addr{out, tup} {
						m.Store64(a, uint64(i))
						m.Store64(a+Addr(size)-8, ^uint64(i))
					}
				}
				// The chunks n records fill, from the index arithmetic alone.
				chunks := 0
				if n > 0 {
					last, _ := s.locate(n - 1)
					chunks = last + 1
				}
				for _, a := range []*Arena{s.bufs[1].arena, h.arenas[1]} {
					if len(a.chunks) != chunks {
						t.Errorf("%d chunks, %d records of %d B fill %d", len(a.chunks), n, size, chunks)
					}
				}
				if refills > 2*chunks {
					t.Errorf("%d refills for 2×%d chunks", refills, chunks)
				}
				// check walks records in a reader's view and counts them.
				var got int
				check := func(what string) func([]byte) {
					return func(recs []byte) {
						if len(recs)%size != 0 {
							t.Fatalf("%s: %d bytes is not whole records", what, len(recs))
						}
						for ; len(recs) > 0; recs = recs[size:] {
							v := binary.LittleEndian.Uint64(recs)
							if v != uint64(got) || binary.LittleEndian.Uint64(recs[size-8:]) != ^v {
								t.Fatalf("%s: record %d reads as %d", what, got, v)
							}
							got++
						}
					}
				}
				s.Publish(0)
				s.Publish(1)
				if next := s.Spans(0, 0, check("Spans, idle worker")); next != 0 || got != 0 {
					t.Errorf("idle worker published %d records", next)
				}
				if next := s.Spans(1, 0, check("Spans")); next != n || got != n {
					t.Errorf("Spans: next %d, read %d records, want %d", next, got, n)
				}
				for _, a := range []*Arena{s.bufs[1].arena, h.arenas[1]} {
					if a.Bytes() != n*size {
						t.Errorf("Bytes = %d, want %d", a.Bytes(), n*size)
					}
					got = 0
					a.EachChunk(func(_ Addr, data []byte) { check("EachChunk")(data) })
					if got != n {
						t.Errorf("EachChunk read %d records, want %d", got, n)
					}
				}
				got = 0
				h.Tuples(func(a Addr) { check("Tuples")(m.Bytes(a, size)) })
				if got != n {
					t.Errorf("Tuples visited %d records, want %d", got, n)
				}
				if h.prepare(); h.Count != n {
					t.Errorf("join counts %d tuples, want %d", h.Count, n)
				}
			})
		}
	}
}

// TestLocalBlocksOwnLines: the per-worker local blocks, where generated
// code bumps its windows on every row, never share a 64-byte cache line in
// host memory, whatever the block size and worker count.
func TestLocalBlocksOwnLines(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, local := range []int{0, 8, 40, 64, 100, 129, 300} {
			m := NewMemory()
			q := NewQueryState(m, workers, 8, local)
			owner := map[uintptr]int{}
			for w, base := range q.Locals {
				blk := m.Bytes(base, max(local, 1))
				first := uintptr(unsafe.Pointer(&blk[0])) / 64
				last := uintptr(unsafe.Pointer(&blk[len(blk)-1])) / 64
				for line := first; line <= last; line++ {
					if o, ok := owner[line]; ok {
						t.Fatalf("workers %d, %d B blocks: workers %d and %d share a cache line", workers, local, o, w)
					}
					owner[line] = w
				}
			}
		}
	}
}

// likeRef is a simple reference LIKE matcher (O(n*m) dynamic programming)
// used to property-test the compiled matcher.
func likeRef(pattern, s string) bool {
	p, str := []byte(pattern), []byte(s)
	dp := make([][]bool, len(p)+1)
	for i := range dp {
		dp[i] = make([]bool, len(str)+1)
	}
	dp[0][0] = true
	for i := 1; i <= len(p); i++ {
		if p[i-1] == '%' {
			dp[i][0] = dp[i-1][0]
		}
	}
	for i := 1; i <= len(p); i++ {
		for j := 1; j <= len(str); j++ {
			switch p[i-1] {
			case '%':
				dp[i][j] = dp[i-1][j] || dp[i][j-1]
			case '_':
				dp[i][j] = dp[i-1][j-1]
			default:
				dp[i][j] = dp[i-1][j-1] && p[i-1] == str[j-1]
			}
		}
	}
	return dp[len(p)][len(str)]
}

func TestLikeFixedCases(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"PROMO%", "PROMO BURNISHED", true},
		{"PROMO%", "STANDARD", false},
		{"%green%", "dark green metallic", true},
		{"%green%", "forest chartreuse", false},
		{"%BRASS", "SMALL PLATED BRASS", true},
		{"%BRASS", "BRASS POLISHED", false},
		{"forest%", "forest green", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"_", "x", true},
		{"_", "", false},
		{"_%", "x", true},
		{"%_", "", false},
	}
	for _, c := range cases {
		p := CompileLike(c.pat)
		if got := p.Match([]byte(c.s)); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pat, c.s, got, c.want)
		}
		if ref := likeRef(c.pat, c.s); ref != c.want {
			t.Errorf("reference matcher disagrees on %q/%q", c.pat, c.s)
		}
	}
}

func TestLikeProperty(t *testing.T) {
	alphabet := []byte("ab%_")
	strAlpha := []byte("ab")
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, alpha []byte) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	check := func() bool {
		pat := gen(rng.Intn(8), alphabet)
		s := gen(rng.Intn(10), strAlpha)
		p := CompileLike(pat)
		got := p.Match([]byte(s))
		want := likeRef(pat, s)
		if got != want {
			t.Logf("LIKE %q on %q: got %v, want %v", pat, s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	// Targeted shapes for the single-literal fast paths: prefix (lit%),
	// suffix (%lit), contains (%lit%), and exact (lit), with random
	// literals over the same alphabet.
	checkShaped := func() bool {
		lit := gen(rng.Intn(6), strAlpha)
		var pat string
		switch rng.Intn(4) {
		case 0:
			pat = lit + "%"
		case 1:
			pat = "%" + lit
		case 2:
			pat = "%" + lit + "%"
		default:
			pat = lit
		}
		s := gen(rng.Intn(10), strAlpha)
		got := CompileLike(pat).Match([]byte(s))
		want := likeRef(pat, s)
		if got != want {
			t.Logf("LIKE %q on %q: got %v, want %v", pat, s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(checkShaped, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestStrHash(t *testing.T) {
	a := StrHash([]byte("hello"))
	b := StrHash([]byte("hello"))
	c := StrHash([]byte("world"))
	if a != b {
		t.Error("hash not deterministic")
	}
	if a == c {
		t.Error("suspicious collision")
	}
}

func TestYearOfDays(t *testing.T) {
	cases := []struct {
		date string
		year int64
	}{
		{"1970-01-01", 1970},
		{"1992-01-01", 1992},
		{"1995-12-31", 1995},
		{"1996-01-01", 1996},
		{"1998-12-01", 1998},
		{"2000-02-29", 2000},
		{"1969-12-31", 1969},
	}
	for _, c := range cases {
		days := mustDays(c.date)
		if got := YearOfDays(days); got != c.year {
			t.Errorf("YearOfDays(%s=%d) = %d, want %d", c.date, days, got, c.year)
		}
	}
}

func mustDays(s string) int64 {
	var y, mo, d int
	if _, err := sscanfDate(s, &y, &mo, &d); err != nil {
		panic(err)
	}
	// days since epoch via Zeller-free arithmetic: reuse the inverse of
	// yearOfDays' algorithm.
	yy := int64(y)
	m := int64(mo)
	if m <= 2 {
		yy--
		m += 12
	}
	era := yy / 400
	if yy < 0 {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400
	doy := (153*(m-3)+2)/5 + int64(d) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

func sscanfDate(s string, y, m, d *int) (int, error) {
	n := 0
	parse := func(str string) int {
		v := 0
		for _, c := range str {
			v = v*10 + int(c-'0')
		}
		return v
	}
	*y, *m, *d = parse(s[0:4]), parse(s[5:7]), parse(s[8:10])
	n = 3
	return n, nil
}

func TestRegistryBindMissing(t *testing.T) {
	r := NewRegistry()
	r.Register("a", func(ctx *Ctx, args []uint64) uint64 { return 0 })
	if _, err := r.Bind([]string{"a", "missing"}); err == nil {
		t.Fatal("expected bind error")
	}
	fns, err := r.Bind([]string{"a"})
	if err != nil || len(fns) != 1 {
		t.Fatalf("bind: %v", err)
	}
}

func TestBuiltins(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltins(r)
	mem := NewMemory()
	q := NewQueryState(mem, 1, 16, 32)
	data := []byte("hello world")
	base := mem.AddSegment(data)
	pid := q.AddPattern("%world%")
	fns, err := r.Bind([]string{"str_like", "str_eq", "str_hash", "date_year"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Mem: mem, Funcs: fns, Query: q}
	if got := fns[0](ctx, []uint64{uint64(pid), base, 11}); got != 1 {
		t.Error("str_like failed")
	}
	if got := fns[1](ctx, []uint64{base, 5, base, 5}); got != 1 {
		t.Error("str_eq failed on equal strings")
	}
	if got := fns[1](ctx, []uint64{base, 5, base + 6, 5}); got != 0 {
		t.Error("str_eq matched different strings")
	}
	if fns[2](ctx, []uint64{base, 5}) != StrHash([]byte("hello")) {
		t.Error("str_hash mismatch")
	}
	days := uint64(9497) // 1996-01-01
	if got := fns[3](ctx, []uint64{days}); got != 1996 {
		t.Errorf("date_year = %d", got)
	}
}

// TestRegs: a context has one register file. A request that fits reuses
// it, contents included (a trap's side exit leaves its slots there); a
// larger one grows it, and the grown file is what later requests reuse.
func TestRegs(t *testing.T) {
	ctx := &Ctx{}
	a := ctx.Regs(4)
	if len(a) != 4 {
		t.Fatalf("len = %d, want 4", len(a))
	}
	a[0] = 42
	if b := ctx.Regs(2); &b[0] != &a[0] || len(b) != 2 {
		t.Error("a smaller request did not reuse the file")
	}
	if c := ctx.Regs(4); &c[0] != &a[0] || c[0] != 42 {
		t.Error("the file was not reused as the last run left it")
	}
	g := ctx.Regs(64)
	if len(g) != 64 {
		t.Fatalf("grown len = %d, want 64", len(g))
	}
	if &g[0] == &a[0] {
		t.Error("a larger request did not grow the file")
	}
	if h := ctx.Regs(8); &h[0] != &g[0] {
		t.Error("the grown file is not the one reused")
	}
}

// TestAggSetMergeWithGrowth is the regression test for a real bug: when
// Finalize merges worker tables and the target grows mid-merge, entries
// adopted from other workers' arenas must survive the relink (growth walks
// the bucket chains, not the arena).
func TestAggSetMergeWithGrowth(t *testing.T) {
	m := NewMemory()
	const workers = 3
	q := NewQueryState(m, workers, 16, 64)
	entrySize := 32 // [next][hash][key @16][count @24]
	keys := []KeyField{{Off: 16}}
	aggs := []AggField{{Kind: AggCount, Off: 24}}
	id := q.AddAgg(entrySize, keys, aggs, 0, false)
	set := q.Aggs[id]

	// Enough disjoint keys per worker that the merge forces several
	// growth rounds of worker 0's table (initial capacity 64).
	const perWorker = 400
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			key := uint64(w*perWorker + k)
			hash := key*0x9E3779B97F4A7C15 ^ (key >> 13)
			e := set.Insert(w, hash)
			m.Store64(e+16, key)
			m.Store64(e+24, 1)
		}
	}
	set.Finalize(1, goroutinePfor(1))
	if set.Groups != workers*perWorker {
		t.Fatalf("Groups = %d, want %d", set.Groups, workers*perWorker)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < set.Groups; i++ {
		e := m.Load64(set.IndexAddr + Addr(i*8))
		if e == 0 {
			t.Fatalf("index slot %d is null (lost entry)", i)
		}
		key := m.Load64(e + 16)
		if seen[key] {
			t.Fatalf("key %d duplicated in index", key)
		}
		seen[key] = true
		if m.Load64(e+24) != 1 {
			t.Errorf("key %d count %d", key, m.Load64(e+24))
		}
	}
}
