package rt

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// goroutinePfor returns a ParallelFor that claims partitions from a shared
// cursor across `workers` goroutines — the same shape the engine supplies,
// so these tests exercise the real concurrent interleavings (and the race
// detector sees them) even though partition work is disjoint by design.
func goroutinePfor(workers int) ParallelFor {
	return func(n int, fn func(p int)) {
		if workers <= 1 || n <= 1 {
			for p := 0; p < n; p++ {
				fn(p)
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers && w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					p := int(next.Add(1)) - 1
					if p >= n {
						return
					}
					fn(p)
				}
			}()
		}
		wg.Wait()
	}
}

// mixHash is the multiplicative hash the tests use for keys.
func mixHash(key uint64) uint64 {
	return key*0x9E3779B97F4A7C15 ^ (key >> 7)
}

// buildJoin constructs a JoinHT and inserts nTuples tuples round-robin
// across 4 worker arenas: key = i % distinct (duplicates force chains).
func buildJoin(nTuples, distinct int) (*Memory, *JoinHT, Addr) {
	m := NewMemory()
	stateAddr := m.Alloc(JoinStateBytes)
	h := NewJoinHT(m, 4, 24, 0)
	for i := 0; i < nTuples; i++ {
		key := uint64(i % distinct)
		tup := h.Alloc(i % 4)
		m.Store64(tup, mixHash(key))
		m.Store64(tup+16, key)
	}
	return m, h, stateAddr
}

// joinChains renders every bucket's chain as an ordered "hash:key" list so
// finalizations with different partition counts can be compared
// chain-by-chain without depending on tuple addresses.
func joinChains(m *Memory, stateAddr Addr) []string {
	buckets := m.Load64(stateAddr)
	mask := m.Load64(stateAddr + 8)
	out := make([]string, mask+1)
	for b := uint64(0); b <= mask; b++ {
		e := m.Load64(buckets + Addr(b*8))
		s := ""
		for e != 0 {
			s += fmt.Sprintf("%x:%d,", m.Load64(e), m.Load64(e+16))
			e = m.Load64(e + 8)
		}
		out[b] = s
	}
	return out
}

// joinFilterWords reads back the published Bloom filter.
func joinFilterWords(m *Memory, stateAddr Addr) []uint16 {
	fAddr := m.Load64(stateAddr + 16)
	mask := m.Load64(stateAddr + 8)
	out := make([]uint16, mask+1)
	for b := uint64(0); b <= mask; b++ {
		out[b] = uint16(m.Load16(fAddr + Addr(b*2)))
	}
	return out
}

// TestJoinFinalizeParallelMatchesSerial: every partition count links the
// same chains and sets the same filter words as one partition (one walk
// over every arena, linkRange(0, nb)).
func TestJoinFinalizeParallelMatchesSerial(t *testing.T) {
	// 6000 tuples over 2000 keys: above minParallelBreaker, chains of 3,
	// plus whatever bucket collisions the hash produces.
	const n, distinct = 6000, 2000
	ms, hs, sts := buildJoin(n, distinct)
	if used := hs.Finalize(sts, 1, goroutinePfor(1)); used != 1 {
		t.Fatalf("reference used %d partitions", used)
	}
	wantChains := joinChains(ms, sts)
	wantFilter := joinFilterWords(ms, sts)
	set := 0
	for _, w := range wantFilter {
		if w != 0 {
			set++
		}
	}
	if set == 0 {
		t.Fatal("reference published an empty filter — the comparison is vacuous")
	}

	for _, cfg := range []struct{ parts, goroutines int }{
		{2, 2}, {8, 8}, {16, 2},
	} {
		mp, hp, stp := buildJoin(n, distinct)
		used := hp.Finalize(stp, cfg.parts, goroutinePfor(cfg.goroutines))
		if used < 1 || used > cfg.parts {
			t.Fatalf("parts=%d: used %d partitions", cfg.parts, used)
		}
		if got := joinChains(mp, stp); !reflect.DeepEqual(got, wantChains) {
			t.Errorf("parts=%d: chains differ from one partition", cfg.parts)
		}
		if got := joinFilterWords(mp, stp); !reflect.DeepEqual(got, wantFilter) {
			t.Errorf("parts=%d: filter words differ from one partition", cfg.parts)
		}
	}
}

func TestJoinFinalizeParallelSmallCollapses(t *testing.T) {
	// Below minParallelBreaker the partitioned path must collapse to one
	// partition and still publish a correct table.
	m, h, st := buildJoin(100, 40)
	if used := h.Finalize(st, 8, goroutinePfor(8)); used != 1 {
		t.Fatalf("used %d partitions for 100 tuples", used)
	}
	ms, hs, sts := buildJoin(100, 40)
	hs.Finalize(sts, 1, goroutinePfor(1))
	if !reflect.DeepEqual(joinChains(m, st), joinChains(ms, sts)) {
		t.Error("collapsed finalize differs from one partition")
	}
}

// buildAgg constructs an AggSet with 4 workers and applies the same
// update stream a generated aggregation would: find-or-insert in the
// worker-local table, then accumulate [sum, count] for the key. Each pass
// over the keys runs on the next worker, so a key seen in several passes
// has an entry in several workers' tables for the merge to combine.
func buildAgg(updates, distinct int) (*Memory, *AggSet) {
	m := NewMemory()
	q := NewQueryState(m, 4, 16, 64)
	// Entry: [next][hash][key i64 @16][sum @24][count @32].
	keys := []KeyField{{Off: 16}}
	aggs := []AggField{{Kind: AggSum, Off: 24}, {Kind: AggCount, Off: 32}}
	id := q.AddAgg(40, keys, aggs, 0, false)
	set := q.Aggs[id]
	for i := 0; i < updates; i++ {
		w := i / distinct % 4
		key := uint64(i % distinct)
		hash := mixHash(key)
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
		m.Store64(e+24, m.Load64(e+24)+uint64(i))
		m.Store64(e+32, m.Load64(e+32)+1)
	}
	return m, set
}

// aggGroups reads the dense index into a key -> [sum, count] map.
func aggGroups(m *Memory, set *AggSet) map[uint64][2]uint64 {
	out := make(map[uint64][2]uint64, set.Groups)
	for i := 0; i < set.Groups; i++ {
		e := m.Load64(set.IndexAddr + Addr(i*8))
		out[m.Load64(e+16)] = [2]uint64{m.Load64(e + 24), m.Load64(e + 32)}
	}
	return out
}

func TestAggFinalizeParallelMatchesSerial(t *testing.T) {
	// 40000 updates over 6000 keys spread across 4 worker tables: every
	// key exists in every worker's table, so the merge dedups 4:1 and the
	// combined entry count (24000) is far above minParallelBreaker.
	const updates, distinct = 40000, 6000
	ms, ss := buildAgg(updates, distinct)
	entries := 0
	for _, ht := range ss.hts {
		entries += ht.count
	}
	if entries < 4*distinct {
		t.Fatalf("%d worker entries over %d keys — the merge combines nothing", entries, distinct)
	}
	if used := ss.Finalize(1, goroutinePfor(1)); used != 1 {
		t.Fatalf("reference used %d partitions", used)
	}
	want := aggGroups(ms, ss)
	if ss.Groups != distinct {
		t.Fatalf("one-partition Groups = %d, want %d", ss.Groups, distinct)
	}

	for _, cfg := range []struct{ parts, goroutines int }{
		{2, 2}, {8, 8}, {16, 2},
	} {
		mp, sp := buildAgg(updates, distinct)
		used := sp.Finalize(cfg.parts, goroutinePfor(cfg.goroutines))
		if used < 1 || used > cfg.parts {
			t.Fatalf("parts=%d: used %d partitions", cfg.parts, used)
		}
		if sp.Groups != distinct {
			t.Errorf("parts=%d: Groups = %d, want %d", cfg.parts, sp.Groups, distinct)
		}
		if got := aggGroups(mp, sp); !reflect.DeepEqual(got, want) {
			t.Errorf("parts=%d: merged groups differ from one partition", cfg.parts)
		}
	}
}

func TestAggFinalizeParallelEmpty(t *testing.T) {
	m, set := buildAgg(0, 1)
	if used := set.Finalize(8, goroutinePfor(8)); used != 1 {
		t.Fatalf("used %d partitions for empty set", used)
	}
	if set.Groups != 0 {
		t.Fatalf("Groups = %d for empty set", set.Groups)
	}
	if set.IndexAddr == 0 {
		t.Fatal("empty set published a null index")
	}
	_ = m
}
