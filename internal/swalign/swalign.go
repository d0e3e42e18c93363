// Package swalign implements the reference Smith-Waterman local alignment
// of Section II of the paper: the dynamic-programming recurrence with
// affine gap penalties (Gotoh's formulation of Eqs. 2-5), the maximum
// similarity score (Eq. 6), and the backtracking step that recovers the
// highest-scoring pair of segments.
//
// It is the oracle against which every optimised kernel in internal/core is
// verified and the engine behind the public pairwise Align and Score; the
// search is exhaustive, so there is no banded rescorer. Score runs in
// O(len(b)) space; Align keeps one direction byte per cell of the
// rectangle up to the alignment's end cell, at most len(a)·len(b) bytes
// plus O(len(b)). The serving traceback of reported hits finds end cells
// and checkpoint columns in internal/core's 16-bit lanes and walks each
// path back with this package's Walker, one block of columns at a time;
// Align is that traceback's oracle and its fallback for a hit at the
// int16 rail.
//
// Gap model: a gap of length x costs g(x) = q + r*x (Eq. 5), with q the
// open penalty and r the extension penalty, both >= 0. The paper's C
// (column gap, consuming query residues) is F here; the paper's F (row gap,
// consuming database residues) is E here, matching the usual Gotoh naming.
package swalign

import (
	"fmt"

	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
)

// Scoring bundles the substitution matrix and affine gap penalties.
type Scoring struct {
	Matrix    *submat.Matrix
	GapOpen   int // q in Eq. 5; cost of opening a gap (>= 0)
	GapExtend int // r in Eq. 5; cost per gapped residue (>= 0)
}

// Validate reports whether the scoring parameters are usable.
func (s Scoring) Validate() error {
	if s.Matrix == nil {
		return fmt.Errorf("swalign: nil substitution matrix")
	}
	if s.GapOpen < 0 || s.GapExtend < 0 {
		return fmt.Errorf("swalign: negative gap penalties q=%d r=%d", s.GapOpen, s.GapExtend)
	}
	return nil
}

// negInf is a safely-small score: adding one substitution plus one gap step
// cannot underflow int32 arithmetic used by callers.
const negInf = -(1 << 29)

// Score computes the optimal local alignment score between sequences a and
// b in O(len(b)) space and O(len(a)*len(b)) time. It is the linear-space
// variant used to verify kernels on inputs too large for the full matrix.
func Score(a, b []alphabet.Code, sc Scoring) int {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	rows := make([]int, 2*len(b))
	best, _, _ := scoreEnd(a, b, sc, rows[:len(b)], rows[len(b):])
	return best
}

// scoreEnd runs the recurrence of Eqs. 2-5 in linear space and returns the
// best score with the first cell reaching it in row-major order, as 1-based
// (bestI, bestJ); (0, 0) when best is 0. h and f are scratch of len(b)
// entries: h[j] holds H[i-1][j+1] entering row i and H[i][j+1] after the
// inner loop passes it, f[j] likewise F. E depends only on the current
// row's previous column, so it is a scalar carried along the row.
//
//sw:hotpath
func scoreEnd(a, b []alphabet.Code, sc Scoring, h, f []int) (best, bestI, bestJ int) {
	qr := sc.GapOpen + sc.GapExtend
	r := sc.GapExtend
	h, f = h[:len(b)], f[:len(b)]
	for j := range h {
		h[j], f[j] = 0, negInf
	}
	for i, c := range a {
		row := sc.Matrix.Row(c)
		diag, left, e, rowMax := 0, 0, negInf, 0
		for j, cb := range b {
			up := h[j] // H[i-1][j+1]
			// E: gap consuming b (row gap, the paper's F).
			e = max(e-r, left-qr)
			// F: gap consuming a (column gap, the paper's C).
			fij := max(f[j]-r, up-qr)
			f[j] = fij
			// H per Eq. 2. e is the only operand carried from the previous
			// column, so it joins last and the carried chain stays short.
			left = max(max(diag+int(row[cb]), fij, 0), e)
			diag = up
			h[j] = left
			rowMax = max(rowMax, left)
		}
		// Rescan only a row that raises the best, for its first column.
		if rowMax > best {
			best, bestI = rowMax, i+1
			for j, v := range h {
				if v == rowMax {
					bestJ = j + 1
					break
				}
			}
		}
	}
	return best, bestI, bestJ
}

// Cells returns the number of DP cells a Score/Align call evaluates, the
// quantity underlying the GCUPS metric.
func Cells(a, b []alphabet.Code) int64 {
	return int64(len(a)) * int64(len(b))
}
