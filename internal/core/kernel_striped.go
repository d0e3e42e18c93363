package core

import (
	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/vec"
)

// DefaultLongSeqThreshold is the database-sequence length above which the
// engine leaves the inter-task lane kernel for the intra-task striped
// kernel below. The value follows CUDASW++ [14] (cited by the paper for its
// database pre-processing), which routes subjects longer than 3072 residues
// to an intra-task path.
//
// Rationale, on the host that runs the code: in the inter-task scheme one
// database sequence occupies one SIMD lane for its whole length and a lane
// group is as wide as its longest member, so the long tail packs badly (a
// 16-lane group around a 35,213-residue entry is 563k padded residues for
// some 51k useful ones), stays one indivisible work item, and needs
// boundary rows proportional to that width (over 2 MB per worker). The
// paper is silent on the issue. The striped kernel vectorises along the
// query instead, pads nothing on the subject side, keeps O(query) state and
// runs on the inter-task kernel's fused column step, so routing costs
// little; below the threshold the length-sorted groups are already dense.
const DefaultLongSeqThreshold = 3072

// stripedLanes is the kernel's vector width: the 16 int16 lanes of one
// 256-bit register. The engine's lane width does not enter; a long subject
// is aligned alone.
const stripedLanes = 16

// stripedTileRows is the most stripes one fused column step takes: the
// step selects a row's score vector through a byte index.
const stripedTileRows = 256

// stripeIndex is the identity "query" handed to vec.StepCol16SP, so that
// row i of a tile scores with row i of the tile's profile slab.
var stripeIndex = func() (idx [stripedTileRows]uint8) {
	for i := range idx {
		idx[i] = uint8(i)
	}
	return idx
}()

// stripedProfile builds the striped query profile for the current query:
// for every residue index e, t stripe vectors of V(e, q[k*t+i]) with
// padding positions scoring profile.PadScore. Layout:
// prof[((e*t)+i)*L + k].
//
//sw:hotpath
func stripedProfile(q *profile.Query, buf *Buffers, t int) []int16 {
	L := stripedLanes
	dst := grow16(&buf.striped, q.Width*t*L)
	m := q.Len()
	for e := 0; e < q.Width; e++ {
		row := q.ExtRow(e)
		base := e * t * L
		for i := 0; i < t; i++ {
			for k := 0; k < L; k++ {
				p := k*t + i
				if p < m {
					dst[base+i*L+k] = row[q.Seq[p]]
				} else {
					dst[base+i*L+k] = profile.PadScore
				}
			}
		}
	}
	return dst
}

// alignPairStriped scores one query/subject pair for the long-subject
// path: the 16-bit striped pass, and on int16 saturation an exact 32-bit
// recomputation with the scalar recurrence, counted in st like a saturated
// lane of the inter-task kernels.
//
//sw:hotpath
func alignPairStriped(q *profile.Query, subject []alphabet.Code, p Params, buf *Buffers, st *Stats) int32 {
	best, saturated := alignPairStriped16(q, subject, p, buf)
	if !saturated {
		return best
	}
	m := q.Len()
	st.Overflows++
	st.OverflowCells += int64(m) * int64(len(subject))
	h := grow32(&buf.h32, m+1)
	e := grow32(&buf.e32, m+1)
	return scalarSeq(q, alphabet.BytesView(subject), 1, len(subject), p, h, e)
}

// alignPairStriped16 is Farrar's striped Smith-Waterman [13] — the
// intra-task vectorisation the paper contrasts with its inter-task scheme —
// over 16-bit lanes. The second return value reports int16 saturation (the
// score may be clipped and the caller must recompute at 32 bits).
//
// The query is split into L segments of length t = ceil(M/L); vector
// element k of stripe i covers query position k*t + i. Walking the stripes
// of one subject column, the F (query-direction gap) dependency crosses
// vector elements only at segment boundaries, so the main pass assumes no
// such flow and the lazy-F loop afterwards propagates boundary-crossing
// gaps until they can no longer raise any H.
//
// One column of that main pass is one call of the fused inter-task column
// step: with rows = stripes, lanes = segments, the column residue's slab of
// the striped profile as the score table and stripeIndex as the query (row
// i scores with slab row i), vec.StepCol16SP computes
// H = max(0, diag+score, E, F), the E and F updates, the diagonal carry
// from the previous column's H (updated in place) and the maximum tracker.
// The caller only pre-loads diag with the last stripe shifted up one lane
// (query position k*t-1 lives in lane k-1) and F with -inf. Queries over
// L*stripedTileRows residues issue one call per tile; F and diag carry from
// one tile into the next exactly as they do from row to row.
//
//sw:hotpath
func alignPairStriped16(q *profile.Query, subject []alphabet.Code, p Params, buf *Buffers) (int32, bool) {
	m := q.Len()
	n := len(subject)
	if m == 0 || n == 0 {
		return 0, false
	}
	const L = stripedLanes
	t := (m + L - 1) / L
	open, r := int32(p.GapOpen), int32(p.GapExtend)
	qr := open + r

	prof := stripedProfile(q, buf, t)

	he := grow16(&buf.stripedHE, 2*t*L)
	h, e := he[:t*L], he[t*L:]
	for i := range h {
		h[i] = 0
		e[i] = vec.MinI16
	}
	last := h[(t-1)*L:]
	diag := vec.I16(buf.stripedVec[0*L : 1*L])
	f := vec.I16(buf.stripedVec[1*L : 2*L])
	maxv := vec.I16(buf.stripedVec[2*L : 3*L])
	vec.Set1(maxv, 0)

	for j := 0; j < n; j++ {
		slab := prof[int(subject[j])*t*L:][:t*L]
		copy(diag[1:], last)
		diag[0] = 0
		vec.Set1(f, vec.MinI16)
		for i0 := 0; i0 < t; i0 += stripedTileRows {
			rows := t - i0
			if rows > stripedTileRows {
				rows = stripedTileRows
			}
			vec.StepCol16SP(vec.I16(h[i0*L:]), vec.I16(e[i0*L:]), f, diag, maxv,
				slab[i0*L:], stripeIndex[:rows], rows, L, int16(qr), int16(r))
		}

		// Lazy-F: f now holds the F leaving each segment's last stripe;
		// walk it into the next segment, one lane at a time, raising H (and
		// refreshing E) where it still wins. The walk stops once
		// F <= max(H - q, 0): below H - q its onward flow F - r is dominated
		// by the H - q - r the main pass already propagated from this
		// unchanged H (Farrar's test), and a non-positive F can never raise
		// an H that is clamped at zero. An F that survives a whole segment
		// replaces that segment's outgoing F, so lanes in ascending order
		// see every boundary crossing. A raised H is an earlier H of this
		// column less a gap, so the maximum tracker needs no update.
		for k := 1; k < L; k++ {
			fin := int32(f[k-1])
			i := k
			for ; i < len(h) && fin > 0 && fin > int32(h[i])-open; i += L {
				hv := int32(h[i])
				if fin > hv {
					hv = fin
					h[i] = int16(hv)
				}
				if ev := hv - qr; ev > int32(e[i]) {
					e[i] = int16(ev)
				}
				fin -= r
			}
			if i >= len(h) && fin > int32(f[k]) {
				f[k] = int16(fin)
			}
		}
	}

	best := vec.HorizontalMax(maxv)
	return int32(best), best == vec.MaxI16
}
