// Package profile implements the two substitution-score layouts studied by
// the paper (Section IV):
//
//   - the query profile (QP): a |Q| x |E| table built once per query in the
//     pre-processing stage, indexed in the inner loop by each lane's current
//     database residue (a gather / non-contiguous access);
//   - the score profile (SP, the paper's "sequence profile"): per database
//     column, one L-lane score vector for every possible query residue,
//     rebuilt as the kernel advances through the database group so the inner
//     loop performs a single contiguous vector load.
//
// The engine runs one of each: the byte lanes of the precision ladder's
// first rung read the int8 query profile (Query.QP8), whose rows fit one
// vector register and are looked up in-register; the 16-bit rung builds
// score rows per database column (ScoreRows). Which layout the paper's
// figures attribute to a variant is the device model's business.
//
// Both layouts are extended with a padding pseudo-residue used by the
// inter-task kernels to neutralise the tails of lanes shorter than their
// group: the pad scores so negatively that padded cells can never raise a
// lane's running maximum.
//
// Table dimensions follow the substitution matrix's alphabet: a Query built
// from a protein matrix has Width 25 (24 residues + pad), one built from
// the IUPAC DNA matrix has Width 16. The kernels read the dimensions off
// the Query, never off a package constant.
package profile

import (
	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
	"heterosw/internal/vec"
)

// PadIndex is the protein padding residue index — the value one past the
// last protein alphabet code. Alphabet-generic code must use Query.Pad (or
// the database alphabet's Size()) instead; this constant remains for the
// protein-only call sites.
const PadIndex = alphabet.Size

// TableWidth is the protein profile table width: the protein alphabet plus
// the padding pseudo-residue. Alphabet-generic code must use Query.Width.
const TableWidth = alphabet.Size + 1

// PadScore is the substitution score of the padding pseudo-residue against
// anything. It is negative enough that a padded column always strictly
// decreases H (the largest real substitution score is ~17), yet small
// enough that no 16-bit arithmetic of the kernels can wrap.
const PadScore = -1024

// PadScore8 is PadScore in the byte profile: the lowest int8, which the
// signed byte rung's saturating add floors at the cell value zero.
const PadScore8 = vec.MinI8

// Query carries everything the kernels need about one query sequence: the
// encoded residues, the byte query profile, and the pad-extended
// substitution table used to build score profiles.
type Query struct {
	// Seq is the encoded query of length M.
	Seq []alphabet.Code
	// Matrix is the substitution matrix the profiles were built from.
	Matrix *submat.Matrix
	// Pad is the padding residue index: the matrix alphabet's size.
	// Width is the profile table width: Pad + 1. Every row of QP8 and Ext
	// has Width entries; interleaved lane groups must pad with Pad.
	Pad, Width int
	// Ext is the pad-extended substitution table:
	// Ext[e*Width + d] = V(e, d), with PadScore wherever either index
	// is the padding pseudo-residue.
	Ext []int16
	// MaxScore is Matrix.Max(), cached for overflow thresholds.
	MaxScore int

	// QP8 is the byte query profile of the ladder's 8-bit first pass,
	// row-major (M rows x Width columns): QP8[(i-1)*Width + e] = V(q_i, e),
	// with PadScore8 in the Pad column, a score that can never raise a lane
	// maximum. Every matrix stores int8 scores, so every query has one.
	QP8 []int8
}

// gatherPad16 and gatherPad8 are the spare capacities (in elements) the
// profile tables carry past their logical length, so the native vector
// backend's wide loads may over-read: the score-row build's vpgatherdd
// fetches a dword per 16-bit Ext entry (one element of over-read at the
// table end), and the 8-bit in-register lookup loads each Width-element QP8
// row as a full 32 bytes (up to 32-Width bytes past the final row — 32
// covers every alphabet down to a one-letter one). internal/vec dispatches
// those paths only when the backing array has this headroom (checked via
// cap), so the padding here is what makes the native paths eligible.
const (
	gatherPad16 = 2
	gatherPad8  = 32
)

func padded16(n int) []int16 { return make([]int16, n+gatherPad16)[:n] }
func padded8(n int) []int8   { return make([]int8, n+gatherPad8)[:n] }

// NewQuery builds the profiles for a query under a substitution matrix.
// The query residues must be encoded under the matrix's alphabet.
func NewQuery(seq []alphabet.Code, m *submat.Matrix) *Query {
	size := m.Size()
	width := size + 1
	q := &Query{
		Seq:      seq,
		Matrix:   m,
		Pad:      size,
		Width:    width,
		Ext:      padded16(width * width),
		MaxScore: m.Max(),
	}
	for e := 0; e < size; e++ {
		row := m.Row(alphabet.Code(e))
		base := e * width
		for d := 0; d < size; d++ {
			q.Ext[base+d] = int16(row[d])
		}
		q.Ext[base+size] = PadScore
	}
	padBase := size * width
	for d := 0; d < width; d++ {
		q.Ext[padBase+d] = PadScore
	}
	q.QP8 = padded8(len(seq) * width)
	for i, r := range seq {
		dst := q.QP8[i*width : (i+1)*width]
		copy(dst, m.Row(r))
		dst[size] = PadScore8
	}
	return q
}

// Len returns the query length M.
func (q *Query) Len() int { return len(q.Seq) }

// QPRow8 returns the byte query-profile row for query position i.
func (q *Query) QPRow8(i int) []int8 {
	return q.QP8[i*q.Width : (i+1)*q.Width]
}

// ExtRow returns the pad-extended substitution row for residue index e.
func (q *Query) ExtRow(e int) []int16 {
	return q.Ext[e*q.Width : (e+1)*q.Width]
}

// ScoreRows is the score-profile scratch for one database column: for every
// residue index e, an L-lane vector of V(e, d_l) where d_l is lane l's
// current database residue. Laid out row-major with stride = lane count, so
// row e is the contiguous vector the paper's SP inner loop loads. The row
// count follows the query's table width; the scratch grows on first use
// and is reused across queries of any alphabet.
type ScoreRows struct {
	lanes int
	rows  []int16 // Width * lanes of the last built query
}

// NewScoreRows allocates score-profile scratch for the given lane count.
func NewScoreRows(lanes int) *ScoreRows {
	return &ScoreRows{lanes: lanes, rows: make([]int16, TableWidth*lanes)}
}

// Lanes returns the lane count the scratch was built for.
func (sr *ScoreRows) Lanes() int { return sr.lanes }

// Build fills the score rows for the current column's lane residues.
// residues must have length Lanes(); entries are residue indices in
// [0, q.Width). The transposition — each lane copies one column of Ext
// — dispatches through vec.BuildRows16, which uses hardware gathers when
// the native backend is selected (Ext carries the required spare
// capacity) and a lane-major strided walk otherwise.
//
//sw:hotpath
func (sr *ScoreRows) Build(q *Query, residues []uint8) {
	n := q.Width * sr.lanes
	if cap(sr.rows) < n {
		sr.rows = make([]int16, n)
	}
	sr.rows = sr.rows[:n]
	vec.BuildRows16(sr.rows, q.Ext, residues, q.Width, sr.lanes, q.Width)
}

// Raw exposes the packed row table (stride Lanes, Width rows of the last
// built query), the form the fused column kernels in internal/vec consume
// directly.
func (sr *ScoreRows) Raw() []int16 { return sr.rows }
