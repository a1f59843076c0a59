package vector

import (
	"aqe/internal/plan"
)

// pairBuf is the reusable (parent lane, matched entry) pair storage of one
// probe operator; one buffer per operator position so stacked joins keep
// their pair frames alive through downstream stages.
type pairBuf struct {
	k []int32
	e []uint64
}

// probe walks the shared join hash table for every live lane and returns
// the downstream frame. The walk replays the compiled probe protocol:
// Bloom tag test (when enabled) before touching the bucket array, hash
// compare, key compares, residual over [probe ++ build], with matches
// visited in (probe lane asc, chain order) — the compiled tiers' tuple
// order per worker.
func (rc *runCtx) probe(pi *probeInfo, fr *frame) *frame {
	p := pi.p
	j := p.Join
	sel := fr.sel
	n := fr.n

	var kbuf [8]*col
	keyCols := kbuf[:0]
	for _, ke := range j.ProbeKeys {
		keyCols = append(keyCols, rc.eval(ke, fr, sel))
	}

	// Hash: the generated code's integer mixer and combiner (join keys are
	// integers by plan construction).
	hv := rc.newCol().u64s(n)
	for i, kc := range keyCols {
		ki := kc.i
		if i == 0 {
			for _, k := range sel {
				hv[k] = mixInt(uint64(ki[k]))
			}
		} else {
			for _, k := range sel {
				hv[k] = (hv[k] ^ mixInt(uint64(ki[k]))) * hashM1
			}
		}
	}

	st := rc.state + uint64(p.StateOff)
	buckets := rc.ld64(st)
	mask := rc.ld64(st + 8)
	fBase := rc.ld64(st + 16)

	// firstOnly: semi/anti probes need only match existence; compiled code
	// stops at the first hash/key match too (no residual by Compile check).
	firstOnly := j.Kind == plan.Semi || j.Kind == plan.Anti

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
	npairs := len(pk)
	pairSel := rc.identity(npairs)
	pairRows := rc.newCol().ints(npairs)
	for q := 0; q < npairs; q++ {
		pairRows[q] = fr.rows[pk[q]]
	}
	if j.Residual != nil && npairs > 0 {
		rfr := rc.newFrame(p.NP + pi.buildW)
		rfr.n = npairs
		rfr.sel = pairSel
		rfr.rows = pairRows
		rfr.parent = fr
		rfr.pk = pk
		rfr.pe = pe
		rfr.probe = pi
		rfr.outView = false
		c := rc.eval(j.Residual, rfr, pairSel)
		pairSel = rc.narrow(pairSel, c)
	}

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
	ofr.n = npairs
	ofr.sel = pairSel
	ofr.rows = pairRows
	ofr.parent = fr
	ofr.pk = pk
	ofr.pe = pe
	ofr.probe = pi
	ofr.outView = true
	return ofr
}
