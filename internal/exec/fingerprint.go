package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"aqe/internal/codegen"
)

// Fingerprint canonically identifies the executable form of a compiled
// query within one engine: the IR module (instructions, types, constants,
// extern names), the interned string literals and LIKE patterns, and the
// pipeline structure. Two plans with equal fingerprints code-generate
// byte-identical modules, so translated bytecode and compiled variants can
// be shared between them — all run-specific bindings (segment contents,
// extern functions, query state) are re-established per execution and
// addressed indirectly.
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
// and LIKE patterns keep hashing by content as in v2. Nothing cached bakes
// their values in any more — compiled code addresses literals indirectly
// and the patterns are registered per run — so hashing their slots instead
// is open (ROADMAP direction 6).
//
// v4 dropped the three header bytes that carried engine switches
// (NoNative, NoVector, the native back-end selector). A cache belongs to
// one engine, whose options never change, and an engine with native code
// ruled out never compiles any, so its cache holds none — the key has no
// such runs to keep apart.
//
// v5 dropped the six header bytes that carried the bytecode translator's
// options (register strategy, fusion, window size), by v4's argument: they
// are Options.VM of the engine that owns the cache, and never change. The
// header is now the version and the pipeline count.
//
// v6 added the build-side joins: each pipeline's join-scan source and mark
// sink ids, and each join's emit rule. RightSemi and RightAnti over the same
// inputs generate identical IR and differ only in the tuples the engine
// emits, so without the rule they would share one entry.
const fingerprintVersion = 6

// fingerprintOf hashes a code-generated query.
func fingerprintOf(cq *codegen.Query) Fingerprint {
	h := sha256.New()
	var hdr [5]byte
	hdr[0] = fingerprintVersion
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(cq.Pipelines)))
	h.Write(hdr[:])

	buf := make([]byte, 0, 1<<14)
	buf = cq.Module.AppendCanonical(buf)
	for _, pl := range cq.Pipelines {
		buf = binary.LittleEndian.AppendUint32(buf,
			uint32(int32(pl.AggSource)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkJoin)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkAgg)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkOut)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.JoinSource)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(pl.SinkMark)))
	}
	for _, jd := range cq.Joins {
		rule := byte(0xff) // a probe-side join
		if jd.Marks != nil {
			rule = byte(jd.Marks.Keep)
		}
		buf = append(buf, rule)
	}
	h.Write(buf)
	// Literal and pattern contents do not change the generated code (they
	// are addressed indirectly), but hashing them keeps the invariant
	// "different query text → different fingerprint" intuitive.
	h.Write(cq.Literals)
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
