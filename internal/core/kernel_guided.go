package core

import (
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
)

// alignGroupGuided is the guided-vectorisation kernel (#pragma omp simd in
// the paper's source): the inner loops are written as plain per-lane loops
// over 32-bit integers — the shape a compiler auto-vectorises — processing
// the whole lane group column by column.
//
// The query dimension is processed in host-sized tiles (Buffers.tile; a
// single tile for all but very long queries), carrying H and F boundary
// rows across tiles. The boundary columns of the DP matrix make the
// single-tile case degenerate correctly: the boundary arrays start at
// H[0][j] = 0 and F = -inf and are only consumed where a previous tile's
// last row would be.
//
//sw:hotpath
func alignGroupGuided(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers) ([]int32, Stats) {
	L := g.Lanes
	M := q.Len()
	N := g.Width
	scores := make([]int32, L)
	var st Stats
	st.Groups = 1
	for lane := 0; lane < L; lane++ {
		if g.SeqIdx[lane] >= 0 {
			st.Alignments++
		}
	}
	if M == 0 || N == 0 {
		return scores, st
	}
	B := buf.tile(M, L, 4)
	qr := int32(p.GapOpen + p.GapExtend)
	r := int32(p.GapExtend)
	isQP := p.Variant.Prof() == ProfQuery

	h := grow32(&buf.h32, (B+1)*L)   // block-local H, previous column
	e := grow32(&buf.e32, (B+1)*L)   // block-local E (database-direction gaps)
	hb := grow32(&buf.hb32, (N+1)*L) // boundary H row: previous tile's last row
	fb := grow32(&buf.fb32, (N+1)*L) // boundary F entering this tile's first row
	maxv := buf.max32
	fcol := buf.f32
	diagv := buf.diag32
	upv := buf.up32

	for l := 0; l < L; l++ {
		maxv[l] = 0
	}
	for i := range hb {
		hb[i] = 0
		fb[i] = negInf32
	}

	for i0 := 1; i0 <= M; i0 += B {
		i1 := i0 + B - 1
		if i1 > M {
			i1 = M
		}
		rows := i1 - i0 + 1
		for i := 0; i < (rows+1)*L; i++ {
			h[i] = 0
			e[i] = negInf32
		}
		for l := 0; l < L; l++ {
			diagv[l] = 0 // H[i0-1][0] == 0 (column boundary)
		}
		for jj := 1; jj <= N; jj++ {
			col := g.Interleaved[(jj-1)*L : jj*L]
			if !isQP {
				buf.sr.Build(q, col)
			}
			fbRow := fb[jj*L : jj*L+L]
			copy(fcol, fbRow)
			for ri := 0; ri < rows; ri++ {
				i := i0 + ri
				hrow := h[(ri+1)*L : (ri+2)*L]
				erow := e[(ri+1)*L : (ri+2)*L]
				copy(upv, hrow)
				if isQP {
					qpRow := q.QPRow(i - 1)
					for l := 0; l < L; l++ {
						sc := int32(qpRow[col[l]])
						hij := diagv[l] + sc
						if erow[l] > hij {
							hij = erow[l]
						}
						if fcol[l] > hij {
							hij = fcol[l]
						}
						if hij < 0 {
							hij = 0
						}
						if hij > maxv[l] {
							maxv[l] = hij
						}
						ei := erow[l] - r
						if v := hij - qr; v > ei {
							ei = v
						}
						erow[l] = ei
						fl := fcol[l] - r
						if v := hij - qr; v > fl {
							fl = v
						}
						fcol[l] = fl
						hrow[l] = hij
					}
				} else {
					spRow := buf.sr.Row(int(q.Seq[i-1]))
					for l := 0; l < L; l++ {
						sc := int32(spRow[l])
						hij := diagv[l] + sc
						if erow[l] > hij {
							hij = erow[l]
						}
						if fcol[l] > hij {
							hij = fcol[l]
						}
						if hij < 0 {
							hij = 0
						}
						if hij > maxv[l] {
							maxv[l] = hij
						}
						ei := erow[l] - r
						if v := hij - qr; v > ei {
							ei = v
						}
						erow[l] = ei
						fl := fcol[l] - r
						if v := hij - qr; v > fl {
							fl = v
						}
						fcol[l] = fl
						hrow[l] = hij
					}
				}
				diagv, upv = upv, diagv
			}
			// Boundary hand-off: next column's first-row diagonal is this
			// column's old boundary value; then store this tile's last row
			// and the F state entering the next tile.
			hbRow := hb[jj*L : jj*L+L]
			copy(diagv, hbRow)
			copy(hbRow, h[rows*L:(rows+1)*L])
			copy(fbRow, fcol)
		}
	}

	for l := 0; l < L; l++ {
		if g.SeqIdx[l] >= 0 {
			scores[l] = maxv[l]
		}
	}
	st.Cells = int64(M) * g.Residues
	st.VecIters = int64(M) * int64(N)
	st.PaddedCells = st.VecIters * int64(L)
	st.Columns = int64(N)
	if isQP {
		st.Gathers = st.VecIters
	} else {
		st.SPBuilds = st.Columns
	}
	return scores, st
}
