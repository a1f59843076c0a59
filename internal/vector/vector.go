// Package vector is the morsel-driven vectorized execution engine: the
// third engine family next to the compiled tiers (internal/exec's
// compiled pipelines) and the Volcano iterator baseline. It consumes the
// same pipeline decomposition, morsel ranges, hash tables, aggregation
// states and output buffers as the compiled tiers — a kernel is just
// another implementation of worker(state, local, begin, end) — so the
// engine can switch a pipeline between compiled and vectorized execution
// between any two morsels and the pipeline breakers merge whatever both
// engines wrote, bit for bit.
//
// Execution is batch-at-a-time (batchN tuples) over unboxed typed vectors
// (int64 / float64 / string-(addr,len) slices) with selection vectors.
// Filters narrow the selection; projections evaluate eagerly under the
// current selection; probes walk the shared chaining hash tables per lane
// and rebase matches into dense pair frames; sinks replay the compiled
// sinks' store protocols exactly (hash functions, tuple layouts, slot
// update order, overflow checks).
//
// Equivalence contract with the compiled tiers: the set of (expression,
// tuple) evaluations is identical — vectorized evaluation narrows inner
// selections for short-circuit AND/OR/CASE exactly where compiled code
// branches — so both engines trap on the same inputs and produce the same
// bytes. The one permitted divergence is *which* trap fires first when a
// single batch contains several failing tuples: compiled code fails on the
// first bad row, a kernel on the first bad column phase. Both abort the
// query with a trap either way.
package vector

import (
	"encoding/binary"
	"fmt"
	"math"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// batchN is the vector length: big enough to amortize per-batch overheads
// and overlap hash-table misses, small enough that a working set of a few
// columns stays in L1/L2 (the classic vectorwise operating point).
const batchN = 1024

// Hash constants of the generated code's integer mixer (emit.go hashKeys).
const (
	hashM1 = uint64(0x9E3779B97F4A7C15)
	hashM2 = uint64(0x811C9DC5FC2C4B5D)
)

// mixInt is the per-key integer mixer of the compiled hash protocol.
func mixInt(k uint64) uint64 {
	kh := k * hashM1
	kh ^= kh >> 32
	kh *= hashM2
	kh ^= kh >> 29
	return kh
}

// Kernel is a compiled vectorized pipeline. It is immutable after Compile
// and safe for concurrent Run calls from multiple workers: all mutable
// batch state lives in per-worker run contexts.
type Kernel struct {
	spec   *codegen.VecSpec
	probes []*probeInfo // parallel to spec.Ops; nil for non-probe ops
	mark   *probeInfo   // the probe of a Mark sink
}

// probeInfo precomputes per-probe lookup structures.
type probeInfo struct {
	p      *codegen.VecProbe
	idx    int // operator position: selects the run context's pair buffer
	buildW int // build-side schema width (residual view column count)
	// byIdx maps a build-schema column index to its stored field.
	byIdx map[int]codegen.VecField
	// payload lists the stored fields of the downstream payload columns in
	// PayloadIdx order (Inner joins).
	payload []codegen.VecField
}

// Compile builds a vectorized kernel from the pipeline's spec. It returns
// an error for pipeline shapes the vectorized engine cannot execute with
// bit-identical semantics; the engine falls back to the compiled tiers.
func Compile(spec *codegen.VecSpec) (*Kernel, error) {
	if spec == nil {
		return nil, fmt.Errorf("vector: pipeline has no spec")
	}
	k := &Kernel{spec: spec, probes: make([]*probeInfo, len(spec.Ops))}
	for i, op := range spec.Ops {
		if op.Probe == nil {
			continue
		}
		j := op.Probe.Join
		if (j.Kind == plan.Semi || j.Kind == plan.Anti) && j.Residual != nil {
			// Compiled semi/anti probes stop at the first hash/key match and
			// never evaluate the residual for later chain candidates; a
			// batch evaluator cannot reproduce that evaluation set exactly
			// (a later candidate's residual could trap), so these shapes
			// stay on the compiled tiers.
			return nil, fmt.Errorf("vector: %v join with residual", j.Kind)
		}
		pi, err := newProbeInfo(op.Probe, i)
		if err != nil {
			return nil, err
		}
		k.probes[i] = pi
	}
	if spec.Mark != nil {
		// A mark probe evaluates the residual for every candidate, as the
		// compiled one does, so a residual is no obstacle here.
		pi, err := newProbeInfo(spec.Mark.Probe, len(spec.Ops))
		if err != nil {
			return nil, err
		}
		k.mark = pi
	}
	return k, nil
}

// newProbeInfo validates a probe for the kernels and precomputes its
// lookup structures; idx selects its pair buffer.
func newProbeInfo(p *codegen.VecProbe, idx int) (*probeInfo, error) {
	j := p.Join
	for _, ke := range j.ProbeKeys {
		if ke.Type().Kind == expr.KString {
			return nil, fmt.Errorf("vector: string join key")
		}
	}
	pi := &probeInfo{
		p: p, idx: idx, buildW: len(j.Build.Schema()),
		byIdx: make(map[int]codegen.VecField, len(p.Fields)),
	}
	for _, f := range p.Fields {
		pi.byIdx[f.SrcIdx] = f
	}
	if j.Kind == plan.Inner {
		for _, src := range j.PayloadIdx {
			f, ok := pi.byIdx[src]
			if !ok {
				return nil, fmt.Errorf("vector: payload references unsaved build column %d", src)
			}
			pi.payload = append(pi.payload, f)
		}
	}
	if j.Residual != nil {
		var missing bool
		collectColRefs(j.Residual, func(idx int) {
			if idx >= p.NP {
				if _, ok := pi.byIdx[idx-p.NP]; !ok {
					missing = true
				}
			}
		})
		if missing {
			return nil, fmt.Errorf("vector: residual references unsaved build column")
		}
	}
	return pi, nil
}

// collectColRefs invokes fn for every column reference in e.
func collectColRefs(e expr.Expr, fn func(idx int)) {
	walk(e, func(x expr.Expr) {
		if cr, ok := x.(*expr.ColRef); ok {
			fn(cr.Idx)
		}
	})
}

// walk invokes fn on e and every subexpression.
func walk(e expr.Expr, fn func(expr.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *expr.Arith:
		walk(x.L, fn)
		walk(x.R, fn)
	case *expr.Cmp:
		walk(x.L, fn)
		walk(x.R, fn)
	case *expr.Logic:
		for _, a := range x.Args {
			walk(a, fn)
		}
	case *expr.NotExpr:
		walk(x.Arg, fn)
	case *expr.LikeExpr:
		walk(x.Arg, fn)
	case *expr.InList:
		walk(x.Arg, fn)
	case *expr.CaseExpr:
		for _, w := range x.Whens {
			walk(w.Cond, fn)
			walk(w.Then, fn)
		}
		walk(x.Else, fn)
	case *expr.YearExpr:
		walk(x.Arg, fn)
	case *expr.SubstrExpr:
		walk(x.Arg, fn)
	case *expr.CastExpr:
		walk(x.Arg, fn)
	}
}

// Run executes the kernel over the morsel [args[2], args[3]) with the
// worker-function ABI of the compiled tiers: args[0] = state arena,
// args[1] = worker-local arena. Traps propagate as *rt.Trap panics exactly
// like compiled code; the engine's dispatch boundary catches them.
func (k *Kernel) Run(ctx *rt.Ctx, args []uint64) {
	rc := k.ctxFor(ctx, args[0], args[1])
	begin, end := int64(args[2]), int64(args[3])
	for lo := begin; lo < end; lo += batchN {
		hi := lo + batchN
		if hi > end {
			hi = end
		}
		rc.reset()
		k.runBatch(rc, lo, int(hi-lo))
	}
}

// ctxFor returns the worker's pooled run context for this kernel, creating
// it on first use. Contexts (and all their batch buffers) live on
// ctx.Local, so after warm-up the batch loop allocates nothing.
func (k *Kernel) ctxFor(ctx *rt.Ctx, state, local uint64) *runCtx {
	m, _ := ctx.Local.(map[*Kernel]*runCtx)
	if m == nil {
		m = make(map[*Kernel]*runCtx)
		ctx.Local = m
	}
	rc := m[k]
	if rc == nil {
		rc = &runCtx{kern: k}
		m[k] = rc
	}
	rc.mem = ctx.Mem
	rc.qs = ctx.Query.(*rt.QueryState)
	rc.worker = ctx.Worker
	rc.state = state
	rc.local = local
	return rc
}

// runBatch pushes one batch of source tuples through the operator chain
// into the sink.
func (k *Kernel) runBatch(rc *runCtx, lo int64, n int) {
	fr := rc.sourceFrame(lo, n)
	for i, op := range k.spec.Ops {
		switch {
		case op.Filter != nil:
			c := rc.eval(op.Filter.Cond, fr, fr.sel)
			fr.sel = rc.narrow(fr.sel, c)
		case op.Project != nil:
			fr = rc.project(op.Project, fr)
		case op.Probe != nil:
			fr = rc.probe(k.probes[i], fr)
		}
		if len(fr.sel) == 0 {
			return
		}
	}
	switch {
	case k.spec.Build != nil:
		rc.buildSink(k.spec.Build, fr)
	case k.spec.Agg != nil:
		rc.aggSink(k.spec.Agg, fr)
	case k.spec.Out != nil:
		rc.outSink(k.spec.Out, fr)
	case k.spec.Mark != nil:
		rc.markSink(k.mark, k.spec.Mark, fr)
	}
}

// ---- run context and buffer pools ----

// runCtx is the per-(worker, kernel) batch state: typed vector pools, the
// segment-table snapshot, and scratch selection vectors. Pools are leased
// per batch (reset rewinds the lease counters without freeing), so the
// steady-state batch loop performs no heap allocation.
type runCtx struct {
	kern   *Kernel
	mem    *rt.Memory
	qs     *rt.QueryState
	worker int
	state  uint64
	local  uint64

	cols     []*col
	ncol     int
	sels     [][]int32
	nsel     int
	frames   []*frame
	nframe   int
	ids      []int32   // identity selection prefix
	pairBufs []pairBuf // per-probe-operator match pair storage
}

func (rc *runCtx) reset() {
	rc.ncol, rc.nsel, rc.nframe = 0, 0, 0
}

// col is one unboxed column vector. Exactly one representation is active
// (kind), chosen by the expression/schema type: i for int-family values
// (ints, decimals, dates, bools, chars), f for floats, sa/sl for strings
// as (addr, len) pairs into the shared address space — the same references
// compiled code manipulates, so stores compare bit-identical. The inactive
// slices are retained backing buffers of earlier leases.
type col struct {
	kind uint8 // kInt / kFloat / kStr
	i    []int64
	f    []float64
	sa   []uint64
	sl   []int64
}

const (
	kInt uint8 = iota
	kFloat
	kStr
)

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (c *col) ints(n int) []int64 {
	c.kind = kInt
	c.i = grow(c.i, n)
	return c.i
}

func (c *col) floats(n int) []float64 {
	c.kind = kFloat
	c.f = grow(c.f, n)
	return c.f
}

func (c *col) strs(n int) ([]uint64, []int64) {
	c.kind = kStr
	c.sa = grow(c.sa, n)
	c.sl = grow(c.sl, n)
	return c.sa, c.sl
}

// u64s leases the address buffer as raw scratch (hash values, entry
// addresses). Scratch columns never enter a frame, so kind is irrelevant.
func (c *col) u64s(n int) []uint64 {
	c.kind = kStr
	c.sa = grow(c.sa, n)
	return c.sa
}

func (rc *runCtx) newCol() *col {
	if rc.ncol == len(rc.cols) {
		rc.cols = append(rc.cols, &col{})
	}
	c := rc.cols[rc.ncol]
	rc.ncol++
	return c
}

func (rc *runCtx) selBuf(n int) []int32 {
	if rc.nsel == len(rc.sels) {
		rc.sels = append(rc.sels, nil)
	}
	s := rc.sels[rc.nsel]
	rc.nsel++
	if cap(s) < n {
		s = make([]int32, 0, n)
		rc.sels[rc.nsel-1] = s
	}
	return s[:0]
}

// identity returns the selection [0, n).
func (rc *runCtx) identity(n int) []int32 {
	for len(rc.ids) < n {
		rc.ids = append(rc.ids, int32(len(rc.ids)))
	}
	return rc.ids[:n]
}

// narrow keeps the lanes of sel whose condition value is true.
func (rc *runCtx) narrow(sel []int32, c *col) []int32 {
	out := rc.selBuf(len(sel))
	for _, k := range sel {
		if c.i[k] != 0 {
			out = append(out, k)
		}
	}
	return out
}

// ---- address-space access ----

// seg returns the byte slice at addr through the live segment table — one
// atomic load per access, exactly like compiled code's loads. A
// snapshot would go stale mid-batch: hash-table growth both appends new
// segments and replaces a bucket segment's backing bytes (SetSegment).
func (rc *runCtx) seg(a uint64) []byte {
	return rc.mem.Seg(a)
}

func (rc *runCtx) ld64(a uint64) uint64 {
	return binary.LittleEndian.Uint64(rc.seg(a))
}

func (rc *runCtx) ld16(a uint64) uint64 {
	return uint64(binary.LittleEndian.Uint16(rc.seg(a)))
}

func (rc *runCtx) st64(a uint64, v uint64) {
	binary.LittleEndian.PutUint64(rc.seg(a), v)
}

// str returns the n bytes at addr.
func (rc *runCtx) str(a uint64, n int64) []byte {
	return rc.seg(a)[:n]
}

// ---- frames ----

// frame is one batch flowing through the pipeline: n lanes, a selection
// vector of live lanes, lazily materialized columns, and the source scan
// row of each lane (probe rebases gather it) for dictionary-code lookups.
type frame struct {
	n    int
	sel  []int32
	rows []int64
	cols []*col

	// Source descriptor (base frames): scan batch start row.
	base *runCtx
	lo   int64

	// Pair frames (Inner / residual view): parent frame, gather map and
	// matched entries; outView selects payload-index field resolution.
	parent  *frame
	pk      []int32
	pe      []uint64
	probe   *probeInfo
	outView bool

	// passthrough marks frames sharing the parent's lanes (OuterCount):
	// columns below np come from the parent without a gather.
	passthrough bool
}

func (rc *runCtx) newFrame(ncols int) *frame {
	if rc.nframe == len(rc.frames) {
		rc.frames = append(rc.frames, &frame{})
	}
	f := rc.frames[rc.nframe]
	rc.nframe++
	cols := f.cols
	*f = frame{}
	if cap(cols) < ncols {
		cols = make([]*col, ncols)
	} else {
		cols = cols[:ncols]
		for i := range cols {
			cols[i] = nil
		}
	}
	f.cols = cols
	return f
}

// col returns column j, materializing it on first use.
func (fr *frame) col(rc *runCtx, j int) *col {
	if c := fr.cols[j]; c != nil {
		return c
	}
	var c *col
	switch {
	case fr.probe != nil && j >= fr.probe.p.NP:
		// Stored build-side field of a pair frame.
		var f codegen.VecField
		if fr.outView {
			f = fr.probe.payload[j-fr.probe.p.NP]
		} else {
			f = fr.probe.byIdx[j-fr.probe.p.NP]
		}
		c = rc.loadFieldCol(fr, f)
	case fr.parent != nil && fr.passthrough:
		c = fr.parent.col(rc, j)
	case fr.parent != nil:
		c = rc.gather(fr, fr.parent.col(rc, j))
	default:
		c = rc.kern.sourceCol(rc, fr, j)
	}
	fr.cols[j] = c
	return c
}

// gather pulls the parent column through the pair frame's gather map.
func (rc *runCtx) gather(fr *frame, pc *col) *col {
	c := rc.newCol()
	n := fr.n
	switch pc.kind {
	case kStr:
		sa, sl := c.strs(n)
		for _, k := range fr.sel {
			p := fr.pk[k]
			sa[k], sl[k] = pc.sa[p], pc.sl[p]
		}
	case kFloat:
		f := c.floats(n)
		for _, k := range fr.sel {
			f[k] = pc.f[fr.pk[k]]
		}
	default:
		i := c.ints(n)
		for _, k := range fr.sel {
			i[k] = pc.i[fr.pk[k]]
		}
	}
	return c
}

// loadFieldCol loads a stored tuple field for every live lane of a frame
// whose lane k's tuple is at fr.pe[k] — a pair frame or a join scan's
// batch (typed loads at entry+off, the vector form of compiled loadAt).
func (rc *runCtx) loadFieldCol(fr *frame, f codegen.VecField) *col {
	c := rc.newCol()
	n := fr.n
	off := uint64(f.Off)
	switch f.T.Kind {
	case expr.KFloat:
		fv := c.floats(n)
		for _, k := range fr.sel {
			fv[k] = math.Float64frombits(rc.ld64(fr.pe[k] + off))
		}
	case expr.KString:
		sa, sl := c.strs(n)
		for _, k := range fr.sel {
			sa[k] = rc.ld64(fr.pe[k] + off)
			sl[k] = int64(rc.ld64(fr.pe[k] + off + 8))
		}
	default:
		iv := c.ints(n)
		for _, k := range fr.sel {
			iv[k] = int64(rc.ld64(fr.pe[k] + off))
		}
	}
	return c
}

// ---- sources ----

// sourceFrame builds the base frame of a batch: rows [lo, lo+n).
func (rc *runCtx) sourceFrame(lo int64, n int) *frame {
	sp := rc.kern.spec
	var width int
	switch {
	case sp.Scan != nil:
		width = len(sp.Scan.Cols)
	case sp.JoinSrc != nil:
		width = len(sp.JoinSrc.Fields)
		if sp.JoinSrc.CountOff >= 0 {
			width++
		}
	default:
		gb := sp.AggSrc.GB
		width = len(gb.Keys) + len(gb.Aggs)
	}
	fr := rc.newFrame(width)
	fr.n = n
	fr.sel = rc.identity(n)
	fr.lo = lo
	rows := rc.newCol().ints(n)
	for k := 0; k < n; k++ {
		rows[k] = lo + int64(k)
	}
	fr.rows = rows
	return fr
}

// sourceCol materializes source column j over the full batch (raw loads
// cannot trap, so eager full-width materialization is safe and keeps the
// inner loops branch-free).
func (k *Kernel) sourceCol(rc *runCtx, fr *frame, j int) *col {
	switch {
	case k.spec.Scan != nil:
		return rc.scanCol(&k.spec.Scan.Cols[j], fr)
	case k.spec.JoinSrc != nil:
		return rc.joinCol(k.spec.JoinSrc, fr, j)
	}
	return rc.groupCol(k.spec.AggSrc, fr, j)
}

// entries returns the batch's entry addresses from the dense index
// published at the state slot indexOff (cached on the frame).
func (rc *runCtx) entries(fr *frame, indexOff int) []uint64 {
	if fr.pe == nil {
		ua, _ := rc.newCol().strs(fr.n)
		idxBase := rc.ld64(rc.state + uint64(indexOff))
		for k := range ua {
			ua[k] = rc.ld64(idxBase + uint64(fr.lo+int64(k))*8)
		}
		fr.pe = ua
	}
	return fr.pe
}

// joinCol decodes column j of a build-side join's scan: a stored build
// column, or RightCount's match count from the mark.
func (rc *runCtx) joinCol(src *codegen.VecJoinSrc, fr *frame, j int) *col {
	ents := rc.entries(fr, src.IndexStateOff)
	if j == len(src.Fields) {
		c := rc.newCol()
		iv := c.ints(fr.n)
		for k, e := range ents {
			iv[k] = int64(rc.ld64(e + uint64(src.CountOff)))
		}
		return c
	}
	return rc.loadFieldCol(fr, src.Fields[j])
}

// scanCol decodes one storage column for rows [lo, lo+n): the unboxed
// typed scan kernels. Column bytes are read through the registered base
// address, not the *storage.Column — a cached kernel must resolve to the
// current run's data exactly like cached compiled code does.
func (rc *runCtx) scanCol(vc *codegen.VecCol, fr *frame) *col {
	c := rc.newCol()
	n := fr.n
	lo := int(fr.lo)
	data := rc.seg(vc.Base)
	switch vc.Kind {
	case storage.Float64:
		f := c.floats(n)
		src := data[lo*8:]
		for k := 0; k < n; k++ {
			f[k] = math.Float64frombits(binary.LittleEndian.Uint64(src[k*8:]))
		}
	case storage.Char:
		i := c.ints(n)
		src := data[lo:]
		for k := 0; k < n; k++ {
			i[k] = int64(src[k])
		}
	case storage.String:
		sa, sl := c.strs(n)
		src := data[lo*16:]
		heap := vc.Heap
		for k := 0; k < n; k++ {
			sa[k] = heap + binary.LittleEndian.Uint64(src[k*16:])
			sl[k] = int64(binary.LittleEndian.Uint64(src[k*16+8:]))
		}
	default: // Int64, Decimal, Date
		i := c.ints(n)
		src := data[lo*8:]
		for k := 0; k < n; k++ {
			i[k] = int64(binary.LittleEndian.Uint64(src[k*8:]))
		}
	}
	return c
}

// groupCol decodes column j of an aggregation-source pipeline from the
// dense group index, with exactly the compiled group resolver's formulas
// (in particular Avg's single float division by pow10(scale)).
func (rc *runCtx) groupCol(src *codegen.VecAggSrc, fr *frame, j int) *col {
	n := fr.n
	ents := rc.entries(fr, src.IndexStateOff)
	gb := src.GB
	nk := len(gb.Keys)
	c := rc.newCol()
	if j < nk {
		off := uint64(src.KeyOffs[j])
		switch gb.Keys[j].Type().Kind {
		case expr.KFloat:
			f := c.floats(n)
			for k := 0; k < n; k++ {
				f[k] = math.Float64frombits(rc.ld64(ents[k] + off))
			}
		case expr.KString:
			sa, sl := c.strs(n)
			for k := 0; k < n; k++ {
				sa[k] = rc.ld64(ents[k] + off)
				sl[k] = int64(rc.ld64(ents[k] + off + 8))
			}
		default:
			i := c.ints(n)
			for k := 0; k < n; k++ {
				i[k] = int64(rc.ld64(ents[k] + off))
			}
		}
		return c
	}
	a := gb.Aggs[j-nk]
	slots := src.SlotOffs[j-nk]
	switch a.Func {
	case plan.Avg:
		f := c.floats(n)
		isF := a.Arg.Type().Kind == expr.KFloat
		scale := a.Arg.Type().Scale
		div := float64(pow10(scale))
		for k := 0; k < n; k++ {
			cnt := int64(rc.ld64(ents[k] + uint64(slots[1])))
			var sumF float64
			if isF {
				sumF = math.Float64frombits(rc.ld64(ents[k] + uint64(slots[0])))
			} else {
				sumF = float64(int64(rc.ld64(ents[k] + uint64(slots[0]))))
				if scale > 0 {
					sumF /= div
				}
			}
			f[k] = sumF / float64(cnt)
		}
	case plan.Sum:
		if a.Arg.Type().Kind == expr.KFloat {
			f := c.floats(n)
			for k := 0; k < n; k++ {
				f[k] = math.Float64frombits(rc.ld64(ents[k] + uint64(slots[0])))
			}
		} else {
			i := c.ints(n)
			for k := 0; k < n; k++ {
				i[k] = int64(rc.ld64(ents[k] + uint64(slots[0])))
			}
		}
	default: // Min/Max/Count/CountStar
		// The compiled resolver emits a raw i64 load here — its registers
		// are untyped 64-bit values, so float min/max bits flow through
		// unchanged. Typed vectors must decode those same bits.
		if (a.Func == plan.Min || a.Func == plan.Max) && a.Arg.Type().Kind == expr.KFloat {
			f := c.floats(n)
			for k := 0; k < n; k++ {
				f[k] = math.Float64frombits(rc.ld64(ents[k] + uint64(slots[0])))
			}
		} else {
			i := c.ints(n)
			for k := 0; k < n; k++ {
				i[k] = int64(rc.ld64(ents[k] + uint64(slots[0])))
			}
		}
	}
	return c
}

// project evaluates all expressions eagerly under the current selection
// (matching compiled projections, which evaluate in the pipeline spine) and
// returns the new frame.
func (rc *runCtx) project(p *codegen.VecProject, fr *frame) *frame {
	nf := rc.newFrame(len(p.Exprs))
	nf.n = fr.n
	nf.sel = fr.sel
	nf.rows = fr.rows
	for j, e := range p.Exprs {
		nf.cols[j] = rc.eval(e, fr, fr.sel)
	}
	return nf
}

func pow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}
