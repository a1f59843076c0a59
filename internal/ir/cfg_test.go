package ir

import (
	"math/rand"
	"testing"
)

// TestDominatesBruteForce checks CFG.Dominates on random control-flow
// graphs against the definition: a dominates b iff b is reachable and
// every path from the entry to b passes through a.
func TestDominatesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		f := NewModule("t").NewFunc("f", I64)
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			f.NewBlock()
		}
		for _, b := range f.Blocks {
			switch rng.Intn(3) {
			case 0:
				b.Term = &Value{Op: OpRetVoid, Block: b}
			case 1:
				b.Term = &Value{Op: OpBr, Block: b, Targets: []*Block{f.Blocks[rng.Intn(n)]}}
			default:
				b.Term = &Value{Op: OpCondBr, Block: b, Args: []*Value{f.Params[0]},
					Targets: []*Block{f.Blocks[rng.Intn(n)], f.Blocks[rng.Intn(n)]}}
			}
		}
		// reach reports whether b is reachable from the entry without
		// entering block skip.
		reach := func(b, skip *Block) bool {
			seen := make([]bool, n)
			stack := []*Block{f.Entry()}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if x == skip || seen[x.ID] {
					continue
				}
				if x == b {
					return true
				}
				seen[x.ID] = true
				stack = append(stack, x.Succs()...)
			}
			return false
		}
		cfg := NewCFG(f)
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				want := reach(b, nil) && (a == b || !reach(b, a))
				if got := cfg.Dominates(a, b); got != want {
					t.Fatalf("graph %d: Dominates(b%d, b%d) = %v, want %v", iter, a.ID, b.ID, got, want)
				}
			}
		}
	}
}
