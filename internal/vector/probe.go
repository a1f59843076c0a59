package vector

import (
	"aqe/internal/codegen"
	"aqe/internal/plan"
)

// pairBuf is the reusable (parent lane, matched entry) pair storage of one
// probe operator; one buffer per operator position so stacked joins keep
// their pair frames alive through downstream stages.
type pairBuf struct {
	k []int32
	e []uint64
}

// walk collects the (lane, entry) pairs of every hash and key match of
// the live lanes against the shared join hash table, replaying the compiled
// probe protocol: Bloom tag test before touching the bucket array, hash
// compare, key compares, with matches visited in (probe lane asc, chain
// order) — the compiled tiers' tuple order per worker. firstOnly stops each
// lane at its first match, as compiled semi and anti probes do.
func (rc *runCtx) walk(pi *probeInfo, fr *frame, firstOnly bool) ([]int32, []uint64) {
	p := pi.p
	j := p.Join
	sel := fr.sel

	var kbuf [8]*col
	keyCols := kbuf[:0]
	for _, ke := range j.ProbeKeys {
		keyCols = append(keyCols, rc.eval(ke, fr, sel))
	}
	// Join keys are integers by plan construction.
	hv := rc.hashLanes(keyCols, sel, fr.n)

	st := rc.state + uint64(p.StateOff)
	buckets := rc.ld64(st)
	mask := rc.ld64(st + 8)
	fBase := rc.ld64(st + 16)

	for len(rc.pairBufs) < pi.idx+1 {
		rc.pairBufs = append(rc.pairBufs, pairBuf{})
	}
	pb := &rc.pairBufs[pi.idx]
	pk, pe := pb.k[:0], pb.e[:0]

	for _, k := range sel {
		h := hv[k]
		slot := h & mask
		fw := rc.ld16(fBase + slot*2)
		tag := uint64(1) << ((h >> 48) & 15)
		if fw&tag == 0 {
			continue
		}
		e := rc.ld64(buckets + slot*8)
		for e != 0 {
			if rc.ld64(e) == h {
				match := true
				for i := range keyCols {
					if int64(rc.ld64(e+uint64(16+8*i))) != keyCols[i].i[k] {
						match = false
						break
					}
				}
				if match {
					pk = append(pk, k)
					pe = append(pe, e)
					if firstOnly {
						break
					}
				}
			}
			e = rc.ld64(e + 8)
		}
	}
	pb.k, pb.e = pk, pe
	return pk, pe
}

// matchPairs evaluates the residual over [probe ++ build] for every pair
// and returns the dense selection of the pairs that pass, with each pair's
// source row.
func (rc *runCtx) matchPairs(pi *probeInfo, fr *frame, pk []int32, pe []uint64) ([]int32, []int64) {
	p := pi.p
	npairs := len(pk)
	pairSel := rc.identity(npairs)
	pairRows := rc.newCol().ints(npairs)
	for q := 0; q < npairs; q++ {
		pairRows[q] = fr.rows[pk[q]]
	}
	if p.Join.Residual != nil && npairs > 0 {
		rfr := rc.newFrame(p.NP + pi.buildW)
		rfr.n = npairs
		rfr.sel = pairSel
		rfr.rows = pairRows
		rfr.parent = fr
		rfr.pk = pk
		rfr.pe = pe
		rfr.probe = pi
		rfr.outView = false
		c := rc.eval(p.Join.Residual, rfr, pairSel)
		pairSel = rc.narrow(pairSel, c)
	}
	return pairSel, pairRows
}

// probe walks the shared join hash table for every live lane and returns
// the downstream frame.
func (rc *runCtx) probe(pi *probeInfo, fr *frame) *frame {
	p := pi.p
	j := p.Join
	sel := fr.sel
	n := fr.n

	// Semi/anti probes need only match existence; compiled code stops at
	// the first hash/key match too (no residual by Compile check).
	pk, pe := rc.walk(pi, fr, j.Kind == plan.Semi || j.Kind == plan.Anti)

	switch j.Kind {
	case plan.Semi:
		// pk holds exactly the matched lanes, ascending.
		fr.sel = pk
		return fr
	case plan.Anti:
		nsel := rc.selBuf(len(sel))
		mi := 0
		for _, k := range sel {
			if mi < len(pk) && pk[mi] == k {
				mi++
				continue
			}
			nsel = append(nsel, k)
		}
		fr.sel = nsel
		return fr
	}

	// Inner / OuterCount: dense pair frame, residual filtering, rebase.
	pairSel, pairRows := rc.matchPairs(pi, fr, pk, pe)

	if j.Kind == plan.OuterCount {
		// Every probe tuple flows downstream with its (residual-filtered)
		// match count; lanes and columns stay the parent's.
		cc := rc.newCol()
		cv := cc.ints(n)
		for _, k := range sel {
			cv[k] = 0
		}
		for _, q := range pairSel {
			cv[pk[q]]++
		}
		ofr := rc.newFrame(p.NP + 1)
		ofr.n = n
		ofr.sel = sel
		ofr.rows = fr.rows
		ofr.parent = fr
		ofr.passthrough = true
		ofr.cols[p.NP] = cc
		return ofr
	}

	ofr := rc.newFrame(p.NP + len(j.PayloadIdx))
	ofr.n = len(pk)
	ofr.sel = pairSel
	ofr.rows = pairRows
	ofr.parent = fr
	ofr.pk = pk
	ofr.pe = pe
	ofr.probe = pi
	ofr.outView = true
	return ofr
}

// markSink is the probe of a build-side join: every hash and key match
// whose residual passes adds one to its build tuple's count in this
// worker's array, exactly like the compiled mark probe.
func (rc *runCtx) markSink(pi *probeInfo, m *codegen.VecMark, fr *frame) {
	pk, pe := rc.walk(pi, fr, false)
	pairSel, _ := rc.matchPairs(pi, fr, pk, pe)
	counts := rc.ld64(rc.local + uint64(m.Layout.LocalOff))
	off := uint64(m.Layout.Off)
	for _, q := range pairSel {
		a := counts + rc.ld64(pe[q]+off)*8
		rc.st64(a, rc.ld64(a)+1)
	}
}
