package server

import (
	"bytes"
	"encoding/json"
	"math"

	"aqe/internal/exec"
	"aqe/internal/expr"
)

// The encoders the wire path used before it read output records directly:
// box every row into []expr.Datum, format it to []string, and let
// encoding/json (or writeDatum into a fresh frameBuf per chunk) produce
// the bytes. They are kept here, for tests only, as the definition of the
// wire format the append-only encoders must reproduce byte for byte.

type wireChunk struct {
	Rows [][]string `json:"rows"`
}

// writeDatum appends one datum in the binary row encoding (readDatum is
// its inverse).
func writeDatum(f *frameBuf, d expr.Datum, t expr.Type) {
	switch t.Kind {
	case expr.KFloat:
		f.u64(int64(math.Float64bits(d.F)))
	case expr.KString:
		f.str32(d.S)
	default:
		f.u64(d.I)
	}
}

// refRowsPayloads encodes boxed rows as Rows-frame payloads of chunkRows
// rows each, the old way.
func refRowsPayloads(rows [][]expr.Datum, types []expr.Type, chunkRows int) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(rows); lo += chunkRows {
		hi := min(lo+chunkRows, len(rows))
		var f frameBuf
		f.u32(hi - lo)
		for _, row := range rows[lo:hi] {
			for j, d := range row {
				writeDatum(&f, d, types[j])
			}
		}
		out = append(out, f.b)
	}
	return out
}

// refChunkLines encodes boxed rows as NDJSON chunk lines of chunkRows
// rows each, the old way.
func refChunkLines(rows [][]expr.Datum, types []expr.Type, chunkRows int) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(rows); lo += chunkRows {
		hi := min(lo+chunkRows, len(rows))
		chunk := wireChunk{Rows: make([][]string, 0, hi-lo)}
		for _, row := range rows[lo:hi] {
			cells := make([]string, len(row))
			for j, d := range row {
				cells[j] = exec.Format(d, types[j])
			}
			chunk.Rows = append(chunk.Rows, cells)
		}
		var b bytes.Buffer
		json.NewEncoder(&b).Encode(chunk)
		out = append(out, b.Bytes())
	}
	return out
}
