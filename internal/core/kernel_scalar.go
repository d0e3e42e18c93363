package core

import (
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
)

const negInf32 = int32(-(1 << 29))

// scalarLane runs the plain 32-bit Smith-Waterman recurrence for a single
// lane of an interleaved group: the top rung of the precision ladder, the
// recomputation path for lanes that saturate 16-bit arithmetic. h and e
// must have at least len(q.Seq)+1 entries: h carries the previous column's
// H values per query row, e the database-direction gap state per query row.
//
//sw:hotpath
func scalarLane(q *profile.Query, g *seqdb.LaneGroup, lane int, p Params, h, e []int32) int32 {
	return scalarSeq(q, g.Interleaved[lane:], g.Lanes, g.Lens[lane], p, h, e)
}

// scalarSeq is the recurrence behind scalarLane over any strided residue
// view: residue j of the n-residue subject is res[j*stride]. A lane of an
// interleaved group strides by the lane count; a plain subject (the long
// path's 32-bit recomputation) by one.
//
//sw:hotpath
func scalarSeq(q *profile.Query, res []uint8, stride, n int, p Params, h, e []int32) int32 {
	m := q.Len()
	if m == 0 || n == 0 {
		return 0
	}
	qr := int32(p.GapOpen + p.GapExtend)
	r := int32(p.GapExtend)

	for i := 0; i <= m; i++ {
		h[i] = 0
		e[i] = negInf32
	}
	best := int32(0)
	for j := 0; j < n; j++ {
		d := int(res[j*stride])
		row := q.ExtRow(d) // V(*, d); symmetric matrix, so V(q_i,d) = row[q_i]
		var diag, fcol int32 = 0, negInf32
		for i := 1; i <= m; i++ {
			up := h[i]
			sc := int32(row[q.Seq[i-1]])
			hij := diag + sc
			if e[i] > hij {
				hij = e[i]
			}
			if fcol > hij {
				hij = fcol
			}
			if hij < 0 {
				hij = 0
			}
			if hij > best {
				best = hij
			}
			// E[i][j+1] = max(E[i][j], H[i][j]-q) - r
			ei := e[i] - r
			if v := hij - qr; v > ei {
				ei = v
			}
			e[i] = ei
			// F[i+1][j] = max(F[i][j], H[i][j]-q) - r
			fcol -= r
			if v := hij - qr; v > fcol {
				fcol = v
			}
			diag = up
			h[i] = hij
		}
	}
	return best
}
