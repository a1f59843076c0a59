package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"aqe/internal/codegen"
	"aqe/internal/vm"
)

// Fingerprint canonically identifies the executable form of a compiled
// query: the IR module (instructions, types, constants, extern names), the
// interned string literals and LIKE patterns, the pipeline structure, and
// the bytecode translator configuration. Two plans with equal fingerprints
// code-generate byte-identical modules under identical translator options,
// so translated bytecode and installed closures can be shared between them
// — all run-specific bindings (segment contents, extern functions, query
// state) are re-established per execution and addressed indirectly.
type Fingerprint [sha256.Size]byte

// Short returns an abbreviated hex form for logs and stats.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:8]) }

// fingerprintVersion guards the canonical encoding: bump it whenever the
// encoding of any hashed component changes, so stale equalities cannot
// survive a refactor within a process (and, later, on disk).
//
// v3 added the parameter descriptors of prepared statements: parameter
// *slots* (count, type, decimal scale) are hashed, parameter *values*
// never are — they live in the run's parameter segment, outside the
// module — so every binding of one statement shares a single cache entry,
// while a change of parameter type or arity re-keys it. Fixed literals
// and LIKE patterns keep hashing by content as in v2: their values are
// baked into cached vector-kernel specs (IN-list strings, compiled
// patterns), so slot-hashing them would alias plans whose cached kernels
// compute different results.
//
// v4 dropped the three header bytes that carried engine switches
// (NoNative, NoVector, the native back-end selector). A cache belongs to
// one engine, whose options never change, and each Handle's
// disabled-levels mask decides which cached variants a run may install —
// so the key has no such runs to keep apart.
const fingerprintVersion = 4

// fingerprintOf hashes a code-generated query under the engine's
// translator options.
func fingerprintOf(cq *codegen.Query, vopts vm.Options) Fingerprint {
	h := sha256.New()
	var hdr [16]byte
	hdr[0] = fingerprintVersion
	hdr[1] = byte(vopts.Strategy)
	if vopts.NoFusion {
		hdr[2] = 1
	}
	binary.LittleEndian.PutUint32(hdr[4:], uint32(vopts.WindowSize))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(cq.Pipelines)))
	h.Write(hdr[:])

	buf := make([]byte, 0, 1<<14)
	buf = cq.Module.AppendCanonical(buf)
	for _, pl := range cq.Pipelines {
		buf = binary.LittleEndian.AppendUint32(buf,
			uint32(int32(pl.AggSource)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkJoin)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkAgg)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkOut)))
	}
	h.Write(buf)
	// Literal and pattern contents do not change the generated code (they
	// are addressed indirectly), but hashing them keeps the invariant
	// "different query text → different fingerprint" intuitive.
	h.Write(cq.Literals[:cq.LitLen])
	for _, p := range cq.Patterns {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	// Parameter descriptors: slots, not values (see fingerprintVersion).
	var pn [4]byte
	binary.LittleEndian.PutUint32(pn[:], uint32(len(cq.Params)))
	h.Write(pn[:])
	for _, t := range cq.Params {
		h.Write([]byte{byte(t.Kind), byte(t.Scale)})
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}
