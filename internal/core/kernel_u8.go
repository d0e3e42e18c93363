package core

import (
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/vec"
)

// The 8-bit first pass of the precision ladder. Scores are computed in
// signed byte lanes holding cell values offset by -128 (vec.I8): twice the
// lanes per vector word as the 16-bit pass, so short-sequence lane groups
// — the bulk of a length-sorted protein database — pack twice as many
// subjects per vector iteration. It is where every search starts that can
// (byteLanes). Lanes that saturate are not recomputed one by one: they are
// re-packed, escLanes at a time, into a lane group of their own that runs
// through the 16-bit inter-task kernel (Buffers.escalate), which in turn
// recomputes what saturates int16 at 32 bits. A search over a database full
// of the query's homologs thus costs the byte pass plus the saturated share
// at 16-bit lane speed. Lane groups whose score upper bound provably fits a
// byte skip saturation detection entirely.

// byteRegister is the byte-lane count of one 256-bit register: the byte
// kernel takes groups that are whole registers wide.
const byteRegister = 32

// byteLanes reports whether the ladder starts in byte lanes: the gap
// penalties fit the signed byte rung (Params.byteGaps) and the lane width
// is one the byte kernel accepts. Everything else — penalties over a
// byte's reach, a 16-lane group — starts at the 16-bit rung.
func byteLanes(viable bool, lanes int) bool {
	return viable && lanes >= byteRegister && lanes%byteRegister == 0
}

// byteGaps reports whether the gap penalties fit the signed byte rung,
// whose saturating subtracts take at most vec.MaxI8. Every substitution
// matrix does: internal/submat stores int8 scores.
func (p Params) byteGaps() bool { return p.GapOpen+p.GapExtend <= vec.MaxI8 }

// scoreBound returns an upper bound on any Smith-Waterman score of the
// query against a subject of at most n residues: an alignment has at most
// min(M, n) match columns, each worth at most the matrix maximum, and gap
// columns never add score. A non-positive matrix maximum bounds every
// score at zero.
func scoreBound(q *profile.Query, n int) int64 {
	if q.MaxScore <= 0 {
		return 0
	}
	m := q.Len()
	if n < m {
		m = n
	}
	return int64(m) * int64(q.MaxScore)
}

// byteRail is the cell value of a saturated byte lane, vec.MaxI8 in the
// offset representation. A lane whose tracked maximum reaches it may have
// clipped; one below it is exact.
const byteRail = vec.MaxI8 - vec.MinI8

// ladderSafe8 reports whether every lane of a width-n group provably stays
// below the byte rail, so the 8-bit pass needs no saturation detection and
// no lane can ever need escalation.
func ladderSafe8(q *profile.Query, n int) bool {
	return scoreBound(q, n) < byteRail
}

// alignGroupIntrinsic8 is the ladder's first-pass kernel: the intrinsic
// tile driver of alignGroupIntrinsic run over signed byte lanes. H, E and F
// hold cell values offset by -128, so the lane floor vec.MinI8 is the cell
// value zero (lifting a negative E/F to zero never changes H = max(0, ...),
// the standard saturating-SIMD argument); the per-cell sequence is a
// saturating add of the plain score, the three-way max, and saturating gap
// updates. A lane whose tracked maximum reaches byteRail may have clipped:
// it is queued in buf, its score left at zero until buf.escalate delivers
// it.
//
// The rung's score lookup is the int8 query profile: a row (q.QP8, at most
// 32 letters) fits one vector register, so vec.Sweep8QP indexes it
// in-register by the column's residues and no per-column score rows are
// built.
//
// Callers must ensure p.byteGaps(); alignGroupLadder does.
//
//sw:hotpath
func alignGroupIntrinsic8(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers, scores []int32) Stats {
	L := g.Lanes
	M := q.Len()
	N := g.Width
	var st Stats
	st.Groups = 1
	for lane := 0; lane < L; lane++ {
		scores[lane] = 0
		if g.SeqIdx[lane] >= 0 {
			st.Alignments++
		}
	}
	if M == 0 || N == 0 {
		return st
	}
	B := buf.tile(M, L, 1)
	qr := int8(p.GapOpen + p.GapExtend)
	r := int8(p.GapExtend)
	safe := ladderSafe8(q, N)
	if safe {
		st.Safe8Groups = 1
	}

	// H and E share one contiguous slab, mirroring the 16-bit kernel, and
	// each tile starts them at the floor, vec.MinI8, the cell value zero.
	// hb and fb carry H and F across a tile seam, one row each per column:
	// every tile but the last writes them and every tile but the first
	// reads what the tile above wrote (see vec.Sweep8QP), so they are never
	// reset and a query of one tile has none.
	he := grow8(&buf.he8, 2*(B+1)*L)
	h, e := he[:(B+1)*L], he[(B+1)*L:]
	var hb, fb []int8
	if B < M {
		hb = grow8(&buf.hb8, N*L)
		fb = grow8(&buf.fb8, N*L)
	}
	maxv := buf.max8
	vec.Set1I8(maxv, vec.MinI8)

	// The byte-lane op sequence (lookup of the score; saturating
	// diag+score floored at zero; maximum with E and F; tracker update;
	// floored E and F updates) is fused into one vec sweep per query tile,
	// across every database column.
	for i0 := 0; i0 < M; i0 += B {
		rows := min(B, M-i0)
		vec.Set1I8(h[L:(rows+1)*L], vec.MinI8)
		vec.Set1I8(e[L:(rows+1)*L], vec.MinI8)
		vec.Sweep8QP(h[L:], e[L:], hb, fb, maxv, q.QP8[i0*q.Width:], q.Width, g.Interleaved, N, rows, L,
			qr, r, i0 == 0, i0+rows == M)
	}

	// Score extraction: provably-safe groups skip detection entirely;
	// otherwise a lane whose tracked maximum reached the rail waits for the
	// next rung.
	for l := 0; l < L; l++ {
		if g.SeqIdx[l] < 0 {
			continue
		}
		if safe || maxv[l] < vec.MaxI8 {
			scores[l] = int32(maxv[l]) - vec.MinI8
			continue
		}
		st.Overflows8++
		st.OverflowCells += int64(M) * int64(g.Lens[l])
		e := &buf.pend[buf.npend]
		e.g, e.lane = g, l
		buf.npend++
	}
	st.Cells = int64(M) * g.Residues
	st.VecIters = int64(M) * int64(N)
	st.PaddedCells = st.VecIters * int64(L)
	st.Columns = int64(N)
	st.Gathers = st.VecIters
	return st
}

// escLanes is the width of the escalation group: the 16 int16 lanes of one
// 256-bit register, whatever byte-lane width the search packed.
const escLanes = 16

// escalation is one byte lane waiting for, or back from, the 16-bit rung.
type escalation struct {
	g     *seqdb.LaneGroup
	lane  int
	score int32
}

// escalate runs the queued byte-lane saturations through the 16-bit rung,
// escLanes at a time, and returns the settled entries with their scores;
// with all set it also runs the last, under-filled group, otherwise fewer
// than escLanes stay queued for the next call. The 16 -> 32 escalations of
// the rung are counted into st (the 8 -> 16 ones were when they queued).
// The result aliases the queue: read it before the next kernel call on b.
//
//sw:hotpath
func (b *Buffers) escalate(q *profile.Query, p Params, st *Stats, all bool) []escalation {
	n := b.npend
	keep := n % escLanes
	if all {
		keep = 0
	}
	for hi := n; hi > keep; hi -= escLanes {
		lo := hi - escLanes
		if lo < keep {
			lo = keep
		}
		b.escalateGroup(q, p, b.pend[lo:hi], st)
	}
	b.npend = keep
	return b.pend[keep:n]
}

// escalateGroup packs up to escLanes saturated lanes into the scratch group
// and scores them with the 16-bit inter-task kernel.
//
//sw:hotpath
func (b *Buffers) escalateGroup(q *profile.Query, p Params, batch []escalation, st *Stats) {
	if b.esc == nil {
		b.esc = NewBuffers(escLanes)
		b.escGroup.Lanes = escLanes
		b.escGroup.SeqIdx = make([]int, escLanes)
		b.escGroup.Lens = make([]int, escLanes)
	}
	b.esc.tileRows = b.tileRows
	g := &b.escGroup
	g.Width, g.Residues = 0, 0
	for k := 0; k < escLanes; k++ {
		g.SeqIdx[k], g.Lens[k] = -1, 0
		if k < len(batch) {
			n := batch[k].g.Lens[batch[k].lane]
			g.SeqIdx[k], g.Lens[k] = k, n
			g.Residues += int64(n)
			if n > g.Width {
				g.Width = n
			}
		}
	}
	inter := grow8(&g.Interleaved, g.Width*escLanes)
	pad := uint8(q.Pad)
	for i := range inter {
		inter[i] = pad
	}
	for k := range batch {
		src, stride, lane := batch[k].g.Interleaved, batch[k].g.Lanes, batch[k].lane
		for j := 0; j < g.Lens[k]; j++ {
			inter[j*escLanes+k] = src[j*stride+lane]
		}
	}
	g.Interleaved = inter
	rung := alignGroupIntrinsic(q, g, p, b.esc, b.escScores[:])
	st.Overflows += rung.Overflows
	st.OverflowCells += rung.OverflowCells
	for k := range batch {
		batch[k].score = b.escScores[k]
	}
}
