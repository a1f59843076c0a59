package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"aqe/internal/storage"
	"aqe/internal/tpch"
)

// diffCat lazily generates the TPC-H catalog shared by the differential
// and stress tests (small scale: the point is coverage, not throughput —
// the IR interpreter runs every query too).
var diffCat = sync.OnceValue(func() *storage.Catalog { return tpch.Gen(0.003) })

// checksum reduces a result to an order-insensitive hash of its canonical
// row strings.
func checksum(res *Result) string {
	rows := canon(res.Rows, res.Types)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestCrossTierDifferential22 runs all 22 TPC-H queries under every
// execution mode and asserts identical result checksums, then runs each
// query a second time on the same engine to prove that a cache-served
// execution — shared bytecode, pre-installed machine code — returns
// byte-identical results. On platforms without a
// native backend, ModeNative and ModeOptimized exercise the silent
// per-pipeline fallback to bytecode instead.
func TestCrossTierDifferential22(t *testing.T) {
	cat := diffCat()
	modes := []Mode{ModeBytecode, ModeNative, ModeOptimized, ModeAdaptive, ModeIRInterp}
	want := make(map[int]string)

	for _, mode := range modes {
		e := New(Options{Workers: 4, Mode: mode, Cost: Native(),
			MorselSize: 512, CacheBytes: 64 << 20})
		for qn := 1; qn <= 22; qn++ {
			q := tpch.Query(cat, qn)
			cold, err := e.Run(q)
			if err != nil {
				t.Fatalf("%v Q%d: %v", mode, qn, err)
			}
			sum := checksum(cold)
			if mode == ModeBytecode {
				want[qn] = sum
			} else if sum != want[qn] {
				t.Errorf("%v Q%d: checksum %s, want %s (bytecode)", mode, qn, sum, want[qn])
				continue
			}
			warm, err := e.Run(q)
			if err != nil {
				t.Fatalf("%v Q%d warm: %v", mode, qn, err)
			}
			if !warm.Stats.CacheHit {
				t.Errorf("%v Q%d: second execution missed the cache", mode, qn)
			}
			if s := checksum(warm); s != want[qn] {
				t.Errorf("%v Q%d: cached checksum %s, want %s", mode, qn, s, want[qn])
			}
		}
		st := e.CacheStats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Errorf("%v: implausible cache counters %+v", mode, st)
		}
	}
}

// TestBreakerConfigDifferential22 runs all 22 TPC-H queries under the
// pipeline-breaker-sensitive configurations — the compiled tiers, bytecode,
// native and the levels a disabled back end leaves — and asserts the
// result checksums never move. Every configuration partitions its breaker
// finalize, checks the join Bloom filters and rewrites string predicates
// to dictionary codes; the rewrites must actually fire, so the agreement
// is not vacuous. Agreement with Volcano is TestAll22QueriesAgainstOracle
// (internal/tpch) and, for the dictionary and zone-map paths,
// TestZoneMapDifferential22.
func TestBreakerConfigDifferential22(t *testing.T) {
	cat := diffCat()
	configs := []struct {
		name string
		opts Options
	}{
		{"baseline", Options{Workers: 4, Mode: ModeOptimized, Cost: Native()}},
		{"bytecode-filter", Options{Workers: 4, Mode: ModeBytecode}},
		{"native", Options{Workers: 4, Mode: ModeNative, Cost: Native()}},
		{"native-disabled", Options{Workers: 4, Mode: ModeNative, Cost: Native(),
			NoNative: true}},
		{"adaptive-no-native", Options{Workers: 4, Mode: ModeAdaptive, Cost: Native(),
			NoNative: true, MorselSize: 512, CacheBytes: 64 << 20}},
	}
	want := make(map[int]string)
	rewrites := 0
	for _, cfg := range configs {
		e := New(cfg.opts)
		for qn := 1; qn <= 22; qn++ {
			res, err := e.Run(tpch.Query(cat, qn))
			if err != nil {
				t.Fatalf("%s Q%d: %v", cfg.name, qn, err)
			}
			sum := checksum(res)
			if cfg.name == "baseline" {
				want[qn] = sum
				rewrites += res.Stats.DictRewrites
			} else if sum != want[qn] {
				t.Errorf("%s Q%d: checksum %s, want %s (baseline)",
					cfg.name, qn, sum, want[qn])
			}
		}
	}
	if rewrites == 0 {
		t.Error("no dictionary rewrite across 22 queries — the rewritten path is untested")
	}
}

// TestWarmAdaptiveStartsCompiled asserts the headline behaviour: after an
// adaptive execution that compiled pipelines, a repeat of the same query
// starts directly in a compiled tier (no re-climb) and spends no time
// translating.
func TestWarmAdaptiveStartsCompiled(t *testing.T) {
	cat := diffCat()
	// Zero-latency model so the controller compiles even on small data.
	cost := Native()
	cost.NativeBase, cost.NativePerInstr = 0, 0
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: cost,
		MorselSize: 128, CacheBytes: 64 << 20})
	q := tpch.Query(cat, 1)
	cold, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	compiledTiers := 0
	for _, l := range cold.Stats.FinalLevels {
		if l > LevelBytecode {
			compiledTiers++
		}
	}
	if compiledTiers == 0 {
		t.Skip("controller never compiled on this machine; nothing to verify")
	}
	warm, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.CacheHit {
		t.Fatal("warm run missed the cache")
	}
	warmCompiled := 0
	for _, l := range warm.Stats.FinalLevels {
		if l > LevelBytecode {
			warmCompiled++
		}
	}
	if warmCompiled < compiledTiers {
		t.Errorf("warm run finished %d pipelines compiled, cold finished %d — tiers not reused",
			warmCompiled, compiledTiers)
	}
	if warm.Stats.Translate > cold.Stats.Translate*2 && warm.Stats.Translate.Microseconds() > 500 {
		t.Errorf("warm translate %v vs cold %v — cache did not skip translation",
			warm.Stats.Translate, cold.Stats.Translate)
	}
	if checksum(warm) != checksum(cold) {
		t.Error("warm checksum diverged")
	}
	if !strings.Contains(warm.Stats.Fingerprint, cold.Stats.Fingerprint) {
		t.Errorf("fingerprint changed: %s vs %s", warm.Stats.Fingerprint, cold.Stats.Fingerprint)
	}
}
