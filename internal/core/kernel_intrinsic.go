package core

import (
	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/vec"
)

// alignGroupIntrinsic is the 16-bit rung of the precision ladder: the
// score-profile column step of internal/vec, the saturating operation
// sequence an intrinsics implementation issues per cell, over score rows
// built per database column. Lanes whose running maximum reaches the int16
// ceiling are recomputed with the scalar 32-bit kernel (the standard
// saturation-escalation scheme of SIMD Smith-Waterman implementations).
// The byte pass hands it its saturated lanes, re-packed (Buffers.escalate),
// and it is the first rung for groups the byte pass cannot take. Lane
// scores go to scores, g.Lanes long.
//
// The query dimension is processed in host-sized tiles (Buffers.tile: 512
// rows at the 16 lanes of an escalation group). Tiles hand H and F across
// the seams that exist: the first tile takes its boundary from the matrix
// edge (H = 0, F = -inf) and the last stores none.
//
//sw:hotpath
func alignGroupIntrinsic(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers, scores []int32) Stats {
	L := g.Lanes
	M := q.Len()
	N := g.Width
	var st Stats
	clear(scores[:L])
	if M == 0 || N == 0 {
		return st
	}
	B := buf.tile(M, L, 2)
	qr := int16(p.GapOpen + p.GapExtend)
	r := int16(p.GapExtend)

	// H and E share one contiguous slab so a tile's hot state is a single
	// block; each holds (B+1)*L entries, the tile's rows from row 1. hb and
	// fb carry H and F across a tile seam, one row each per column: every
	// tile but the last writes them and every tile but the first reads what
	// the tile above wrote, so they are never cleared and a query of one
	// tile has none.
	he := grow16(&buf.he16, 2*(B+1)*L)
	h, e := he[:(B+1)*L], he[(B+1)*L:]
	var hb, fb []int16
	if B < M {
		hb = grow16(&buf.hb16, (N+1)*L)
		fb = grow16(&buf.fb16, (N+1)*L)
	}
	maxv := buf.max16
	fcol := buf.f16
	diagv := buf.diag16

	vec.Set1(maxv, 0)

	// The per-row vector-op sequence (saturating diag+score; maximum with
	// E, F and zero; tracker update; saturating E and F updates) is fused
	// into one vec column step per database column, amortising dispatch
	// across the whole tile and keeping F, the diagonal and the tracker
	// register-resident on the native backend; the device model costs the
	// individual operations.
	seqBytes := alphabet.BytesView(q.Seq)
	for i0 := 1; i0 <= M; i0 += B {
		i1 := i0 + B - 1
		if i1 > M {
			i1 = M
		}
		rows := i1 - i0 + 1
		first, last := i0 == 1, i1 == M
		clear(h[L : (rows+1)*L])
		vec.Set1(vec.I16(e[L:(rows+1)*L]), vec.MinI16)
		clear(diagv)
		tileSeq := seqBytes[i0-1 : i1]
		for jj := 1; jj <= N; jj++ {
			col := g.Interleaved[(jj-1)*L : jj*L]
			// F entering the tile's first row: -inf above the first tile.
			if first {
				vec.Set1(fcol, vec.MinI16)
			} else {
				copy(fcol, fb[jj*L:jj*L+L])
			}
			buf.sr.Build(q, col)
			vec.StepCol16SP(vec.I16(h[L:]), vec.I16(e[L:]), fcol, diagv, maxv,
				buf.sr.Raw(), tileSeq, rows, L, qr, r)
			// The next column's diagonal is H of the row above the tile at
			// this column: row 0 of the matrix, all zero, above the first.
			if first {
				clear(diagv)
			} else {
				copy(diagv, hb[jj*L:jj*L+L])
			}
			if !last {
				copy(hb[jj*L:jj*L+L], h[rows*L:(rows+1)*L])
				copy(fb[jj*L:jj*L+L], fcol)
			}
		}
	}

	// Score extraction with saturation escalation: a lane whose tracked
	// maximum hit the int16 ceiling may have been clipped anywhere in the
	// matrix, so its exact score is recomputed in 32 bits.
	var h32, e32 []int32
	for l := 0; l < L; l++ {
		if g.SeqIdx[l] < 0 {
			continue
		}
		if maxv[l] == vec.MaxI16 {
			if h32 == nil {
				h32 = grow32(&buf.h32, M+1)
				e32 = grow32(&buf.e32, M+1)
			}
			scores[l] = scalarLane(q, g, l, p, h32, e32)
			st.Overflows++
			st.OverflowCells += int64(M) * int64(g.Lens[l])
		} else {
			scores[l] = int32(maxv[l])
		}
	}
	st.Cells = int64(M) * g.Residues
	return st
}
