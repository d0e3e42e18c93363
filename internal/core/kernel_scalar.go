package core

import (
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/vec"
)

const negInf32 = int32(-(1 << 29))

// scalarLane runs the plain 32-bit Smith-Waterman recurrence for a single
// lane of an interleaved group. It is both the no-vec kernel body and the
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
		// The scalar SP/QP distinction is purely an access pattern (and
		// cost-model) difference: both read V(q_i, d).
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

// scalarLane16 runs the Smith-Waterman recurrence for one lane in 16-bit
// saturating arithmetic — the middle tier of the precision ladder. It
// mirrors the intrinsic 16-bit kernel's per-lane operation sequence
// (saturating add on the diagonal, rail-clamped gap updates) so its
// clipping behaviour agrees with the lane pass exactly. The second return
// value reports whether the running maximum reached the int16 ceiling, in
// which case the score may be clipped and the caller must recompute at 32
// bits. h and e need len(q.Seq)+1 entries.
//
//sw:hotpath
func scalarLane16(q *profile.Query, g *seqdb.LaneGroup, lane int, p Params, h, e []int16) (int32, bool) {
	m := q.Len()
	n := g.Lens[lane]
	if m == 0 || n == 0 {
		return 0, false
	}
	qr := int32(p.GapOpen + p.GapExtend)
	r := int32(p.GapExtend)
	L := g.Lanes

	for i := 0; i <= m; i++ {
		h[i] = 0
		e[i] = vec.MinI16
	}
	best := int16(0)
	for j := 0; j < n; j++ {
		d := int(g.Interleaved[j*L+lane])
		row := q.ExtRow(d)
		diag, fcol := int32(0), int32(vec.MinI16)
		for i := 1; i <= m; i++ {
			up := h[i]
			hv := diag + int32(row[q.Seq[i-1]])
			if hv > vec.MaxI16 {
				hv = vec.MaxI16
			}
			if int32(e[i]) > hv {
				hv = int32(e[i])
			}
			if fcol > hv {
				hv = fcol
			}
			if hv < 0 {
				hv = 0
			}
			h16 := int16(hv)
			if h16 > best {
				best = h16
			}
			uv := hv - qr
			e2 := int32(e[i]) - r
			if e2 < vec.MinI16 {
				e2 = vec.MinI16
			}
			if uv > e2 {
				e2 = uv
			}
			e[i] = int16(e2)
			fcol -= r
			if fcol < vec.MinI16 {
				fcol = vec.MinI16
			}
			if uv > fcol {
				fcol = uv
			}
			diag = int32(up)
			h[i] = h16
		}
	}
	return int32(best), best == vec.MaxI16
}

// alignGroupScalar is the no-vec kernel: each lane of the group is aligned
// sequentially with scalar arithmetic. Padding never enters the loop, so
// PaddedCells equals Cells.
//
//sw:hotpath
func alignGroupScalar(q *profile.Query, g *seqdb.LaneGroup, p Params) ([]int32, Stats) {
	scores := make([]int32, g.Lanes)
	m := q.Len()
	h := make([]int32, m+1)
	e := make([]int32, m+1)
	var st Stats
	st.Groups = 1
	for lane := 0; lane < g.Lanes; lane++ {
		if g.SeqIdx[lane] < 0 {
			continue
		}
		scores[lane] = scalarLane(q, g, lane, p, h, e)
		cells := int64(m) * int64(g.Lens[lane])
		st.Cells += cells
		st.PaddedCells += cells
		st.VecIters += cells // scalar iterations
		st.Columns += int64(g.Lens[lane])
		st.Alignments++
	}
	return scores, st
}
