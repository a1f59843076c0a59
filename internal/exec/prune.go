package exec

import (
	"aqe/internal/codegen"
	"aqe/internal/storage"
)

// pruneMask marks the zone-map blocks of a scan that the pipeline's
// sargable conjuncts prove empty: the morsel dispatcher advances the claim
// cursor past marked blocks without invoking a kernel.
type pruneMask struct {
	blockRows    int64
	pruned       []bool
	prunedBlocks int64
	prunedTuples int64

	// prunedStrBlocks counts pruned blocks whose deciding conjunct was a
	// string condition over dictionary codes (Stats.StringBlocksPruned).
	prunedStrBlocks int64
}

// buildPruneMask evaluates the prune conditions against the table's zone
// maps. Conditions whose column has no zone map contribute nothing; all
// usable maps must share one block size. Returns nil when nothing can be pruned — the dispatcher then
// keeps its lock-free fast path.
func buildPruneMask(t *storage.Table, conds []codegen.PruneCond) *pruneMask {
	rows := t.Rows()
	if rows == 0 {
		return nil
	}
	type zoned struct {
		pc codegen.PruneCond
		zm *storage.ZoneMap
	}
	var usable []zoned
	blockRows := 0
	for _, pc := range conds {
		zm := pc.Col.Zone()
		if zm == nil {
			continue
		}
		if blockRows == 0 {
			blockRows = zm.BlockRows
		}
		if zm.BlockRows != blockRows {
			continue
		}
		usable = append(usable, zoned{pc, zm})
	}
	if len(usable) == 0 {
		return nil
	}
	nb := (rows + blockRows - 1) / blockRows
	pm := &pruneMask{blockRows: int64(blockRows), pruned: make([]bool, nb)}
	for b := 0; b < nb; b++ {
		for _, z := range usable {
			var may bool
			if z.pc.Float() {
				may = z.pc.BlockMayMatchF(z.zm.MinF[b], z.zm.MaxF[b])
			} else {
				may = z.pc.BlockMayMatch(z.zm.MinI[b], z.zm.MaxI[b])
			}
			if !may {
				pm.pruned[b] = true
				if z.pc.Col.Kind == storage.String {
					pm.prunedStrBlocks++
				}
				break
			}
		}
		if pm.pruned[b] {
			end := (b + 1) * blockRows
			if end > rows {
				end = rows
			}
			pm.prunedBlocks++
			pm.prunedTuples += int64(end - b*blockRows)
		}
	}
	if pm.prunedBlocks == 0 {
		return nil
	}
	return pm
}
