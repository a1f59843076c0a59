package vector

import (
	"bytes"
	"encoding/binary"
	"math"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
)

// hashLanes computes the compiled hash-combine over integer key columns for
// every live lane (build and probe keys are integers by plan construction).
func (rc *runCtx) hashLanes(keyCols []*col, sel []int32, n int) []uint64 {
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
	return hv
}

// storeTyped writes one column value at base+off with the compiled storeAt
// convention: strings as (addr, len) pairs, floats as raw bits, everything
// else (ints, decimals, dates, bools) as an i64.
func (rc *runCtx) storeTyped(base, off uint64, t expr.Type, c *col, k int32) {
	switch t.Kind {
	case expr.KString:
		rc.st64(base+off, c.sa[k])
		rc.st64(base+off+8, uint64(c.sl[k]))
	case expr.KFloat:
		rc.st64(base+off, math.Float64bits(c.f[k]))
	default:
		rc.st64(base+off, uint64(c.i[k]))
	}
}

// buildSink materializes build-side join tuples ([hash][next][keys...]
// [fields...]) into the worker's join arena — the same layout and the same
// bump window the compiled buildSink uses, and both engines' probes walk.
func (rc *runCtx) buildSink(b *codegen.VecBuild, fr *frame) {
	sel := fr.sel
	var kbuf [8]*col
	keyCols := kbuf[:0]
	for _, ke := range b.Keys {
		keyCols = append(keyCols, rc.eval(ke, fr, sel))
	}
	hv := rc.hashLanes(keyCols, sel, fr.n)

	var fbuf [16]*col
	fcols := fbuf[:0]
	for _, f := range b.Fields {
		fcols = append(fcols, fr.col(rc, f.SrcIdx))
	}

	ht := rc.qs.Joins[b.JoinID]
	for _, k := range sel {
		t := uint64(ht.Alloc(rc.worker))
		rc.st64(t, hv[k])
		for i := range keyCols {
			rc.st64(t+uint64(16+8*i), uint64(keyCols[i].i[k]))
		}
		for i, f := range b.Fields {
			rc.storeTyped(t, uint64(f.Off), f.T, fcols[i], k)
		}
	}
}

// aggSink is the vectorized group-by update: find-or-insert in the worker's
// aggregation hash table, then update the aggregate slots, replaying the
// compiled sink byte for byte — the dictionary-code hash substitution, the
// per-tuple bucket/mask reload (the table grows mid-batch), slot
// initialization, update order and the integer-sum overflow check.
func (rc *runCtx) aggSink(a *codegen.VecAgg, fr *frame) {
	sel := fr.sel
	gb := a.GB

	var kbuf [8]*col
	keyCols := kbuf[:0]
	var hv []uint64
	if !a.Scalar {
		for _, ke := range gb.Keys {
			keyCols = append(keyCols, rc.eval(ke, fr, sel))
		}
		hv = rc.newCol().u64s(fr.n)
		for i, kc := range keyCols {
			t := gb.Keys[i].Type()
			cb := a.KeyCodeBase[i]
			for _, k := range sel {
				var kh uint64
				switch {
				case cb != 0:
					// Dictionary-code substitution: hash the column's 4-byte
					// code as an integer; the stored key stays (addr, len).
					code := binary.LittleEndian.Uint32(rc.seg(cb + uint64(fr.rows[k])*4))
					kh = mixInt(uint64(code))
				case t.Kind == expr.KString:
					kh = rt.StrHash(rc.str(kc.sa[k], kc.sl[k]))
				default:
					kh = mixInt(uint64(kc.i[k]))
				}
				if i == 0 {
					hv[k] = kh
				} else {
					hv[k] = (hv[k] ^ kh) * hashM1
				}
			}
		}
	}

	// Aggregate argument vectors: Count/CountStar never evaluate their
	// argument (parity with the compiled sink, which only bumps).
	var abuf [8]*col
	argCols := abuf[:0]
	for _, ag := range gb.Aggs {
		switch ag.Func {
		case plan.Count, plan.CountStar:
			argCols = append(argCols, nil)
		default:
			argCols = append(argCols, rc.eval(ag.Arg, fr, sel))
		}
	}

	base := rc.local + uint64(a.LocalOff)
	set := rc.qs.Aggs[a.AggID]
	for _, k := range sel {
		var e uint64
		if a.Scalar {
			e = rc.ld64(base + 16)
		} else {
			h := hv[k]
			// Reload per tuple: Insert can grow the bucket array.
			buckets := rc.ld64(base)
			mask := rc.ld64(base + 8)
			e = rc.ld64(buckets + (h&mask)*8)
			for e != 0 {
				if rc.ld64(e+8) == h && rc.aggKeyEq(a, keyCols, e, k) {
					break
				}
				e = rc.ld64(e)
			}
			if e == 0 {
				e = uint64(set.Insert(rc.worker, h))
				for i, kf := range a.Keys {
					if kf.Str {
						rc.st64(e+uint64(kf.Off), keyCols[i].sa[k])
						rc.st64(e+uint64(kf.Off)+8, uint64(keyCols[i].sl[k]))
					} else {
						rc.st64(e+uint64(kf.Off), uint64(keyCols[i].i[k]))
					}
				}
				for _, af := range a.Aggs {
					rc.st64(e+uint64(af.Off), af.Kind.Init())
				}
			}
		}

		for ai, ag := range gb.Aggs {
			slots := a.SlotOffs[ai]
			switch ag.Func {
			case plan.Count, plan.CountStar:
				rc.bump(e + uint64(slots[0]))
			case plan.Avg:
				rc.accumulate(e+uint64(slots[0]), argCols[ai], ag.Arg, k)
				rc.bump(e + uint64(slots[1]))
			case plan.Sum:
				rc.accumulate(e+uint64(slots[0]), argCols[ai], ag.Arg, k)
			case plan.Min, plan.Max:
				addr := e + uint64(slots[0])
				if ag.Arg.Type().Kind == expr.KFloat {
					cur := math.Float64frombits(rc.ld64(addr))
					v := argCols[ai].f[k]
					// NaN compares false → keep cur, like the compiled FCmp.
					if (ag.Func == plan.Min && v < cur) || (ag.Func == plan.Max && v > cur) {
						rc.st64(addr, math.Float64bits(v))
					}
				} else {
					cur := int64(rc.ld64(addr))
					v := argCols[ai].i[k]
					if (ag.Func == plan.Min && v < cur) || (ag.Func == plan.Max && v > cur) {
						rc.st64(addr, uint64(v))
					}
				}
			}
		}
	}
}

// aggKeyEq compares lane k's key values against a stored group entry.
func (rc *runCtx) aggKeyEq(a *codegen.VecAgg, keyCols []*col, e uint64, k int32) bool {
	for i, kf := range a.Keys {
		if kf.Str {
			sAddr := rc.ld64(e + uint64(kf.Off))
			sLen := int64(rc.ld64(e + uint64(kf.Off) + 8))
			if sLen != keyCols[i].sl[k] ||
				!bytes.Equal(rc.str(keyCols[i].sa[k], keyCols[i].sl[k]), rc.str(sAddr, sLen)) {
				return false
			}
		} else if int64(rc.ld64(e+uint64(kf.Off))) != keyCols[i].i[k] {
			return false
		}
	}
	return true
}

// bump increments a counter slot (unchecked, like the compiled sink).
func (rc *runCtx) bump(addr uint64) {
	rc.st64(addr, rc.ld64(addr)+1)
}

// accumulate adds lane k's argument into a sum slot: overflow-checked for
// integer/decimal sums, a plain float add for float sums.
func (rc *runCtx) accumulate(addr uint64, c *col, arg expr.Expr, k int32) {
	if arg.Type().Kind == expr.KFloat {
		cur := math.Float64frombits(rc.ld64(addr))
		rc.st64(addr, math.Float64bits(cur+c.f[k]))
		return
	}
	cur := int64(rc.ld64(addr))
	v := c.i[k]
	r := cur + v
	if (cur^r)&(v^r) < 0 {
		rt.Throw(rt.TrapOverflow)
	}
	rc.st64(addr, uint64(r))
}

// outSink materializes result rows into the worker's output buffer with the
// compiled storeAt layout, bumping the same window generated code bumps
// (rt.Arena.Alloc), so morsels of either engine append to the same chunks.
func (rc *runCtx) outSink(o *codegen.VecOut, fr *frame) {
	sel := fr.sel
	var cbuf [16]*col
	cols := cbuf[:0]
	for j := range o.Cols {
		cols = append(cols, fr.col(rc, j))
	}
	os := rc.qs.Outs[o.OutID]
	for _, k := range sel {
		row := uint64(os.Alloc(rc.worker))
		for j := range o.Cols {
			cd := &o.Cols[j]
			rc.storeTyped(row, uint64(cd.Off), cd.T, cols[j], k)
		}
	}
}
