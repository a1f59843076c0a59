//go:build amd64 && (linux || darwin)

package asm

import (
	"bytes"
	"slices"
	"testing"

	"aqe/internal/ir"
)

// PathNames names the paths a memory access can take, indexed as
// Census.Paths.
var PathNames = [numPaths]string{
	pathFull:      "full",
	pathConstSeg:  "constseg",
	pathTranslate: "translate",
	pathCached:    "cached",
	pathForwarded: "forwarded",
}

// Census is what one compilation chose.
type Census struct {
	Paths  [numPaths]int  // accesses per path
	Groups []int          // accesses of each group sharing one translation
	SETO   int            // checked ops that materialize their flag
	Path   map[int]string // access value ID → path name
}

// CompileCensus is Compile, also returning its census.
func CompileCensus(f *ir.Function) (*Code, Census, error) {
	cs := &census{path: make(map[int]int)}
	code, err := compile(f, cs)
	out := Census{Paths: cs.paths, Groups: cs.groups, SETO: cs.seto, Path: make(map[int]string, len(cs.path))}
	for id, p := range cs.path {
		out.Path[id] = PathNames[p]
	}
	return code, out, err
}

// TestSegStencil: a stamped translation is byte for byte the one the
// encoder emits, with its label references at the same places.
func TestSegStencil(t *testing.T) {
	for _, w := range []int32{1, 2, 4, 8} {
		direct := &compiler{a: newAsmBuf(64, 4, 4)}
		direct.a.label()
		l := direct.a.label()
		direct.a.byte(0x90) // the stamp lands at a non-zero offset
		direct.encodeSegTranslate(w, l)
		stamped := &compiler{a: newAsmBuf(64, 4, 4)}
		stamped.a.label()
		stamped.a.byte(0x90)
		stamped.segTranslate(w, stamped.a.label())
		if !bytes.Equal(direct.a.buf, stamped.a.buf) || !slices.Equal(direct.a.fixups, stamped.a.fixups) {
			t.Errorf("width %d: stamped % x %v, encoded % x %v", w,
				stamped.a.buf, stamped.a.fixups, direct.a.buf, direct.a.fixups)
		}
	}
}
