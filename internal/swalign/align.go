package swalign

import (
	"fmt"
	"math/bits"
	"strings"

	"heterosw/internal/alphabet"
)

// Op is one column class of a local alignment.
type Op byte

const (
	// OpMatch aligns a residue of A against a residue of B (match or
	// mismatch).
	OpMatch Op = 'M'
	// OpDeleteB aligns a gap in A against a residue of B.
	OpDeleteB Op = 'D'
	// OpInsertA aligns a residue of A against a gap in B.
	OpInsertA Op = 'I'
)

// Alignment is the result of a full Smith-Waterman alignment with
// backtracking (step 4 of Section II): the highest-scoring pair of local
// segments and the edit path between them.
type Alignment struct {
	Score int
	// AStart/AEnd delimit the aligned segment of A as a half-open
	// residue range [AStart, AEnd); similarly BStart/BEnd for B.
	AStart, AEnd int
	BStart, BEnd int
	// Ops is the alignment path from head to tail.
	Ops []Op
	// Identities counts exactly-matching residue columns.
	Identities int

	a, b []alphabet.Code
	// alpha is the scoring matrix's alphabet, which Format decodes under.
	alpha *alphabet.Alphabet
}

// Direction bytes, one per cell of the rectangle the traceback can visit.
// Bits 0-1 name H's source in the backtracker's order of preference; bit 2
// is set when E opens from H rather than extending, bit 3 likewise for F.
const (
	dirZero byte = iota // H is 0: the path starts here
	dirDiag
	dirE
	dirF
	dirSrc   = 3
	dirEOpen = 1 << 2
	dirFOpen = 1 << 3
)

// Align computes the optimal local alignment between a and b and recovers
// it by backtracking from the global maximum (Eq. 6) to the nearest zero
// cell. A linear-space pass finds the first maximal cell in row-major
// order (bestI, bestJ); the walk (Walker.Trace) then recomputes one
// direction byte per cell of a[:bestI] × b[:bestJ], a single block from
// column 0, and reads the path from those bytes. Memory is one byte per
// cell of that rectangle plus O(len(b)) words, where three int32 matrices
// take 12 bytes per cell of (m+1)×(n+1). Ties are broken preferring
// diagonal moves, then gaps in B, matching common tool behaviour. Align
// panics on invalid scoring; it returns a zero-score, empty alignment when
// either sequence is empty or no positive-scoring pair exists.
func Align(a, b []alphabet.Code, sc Scoring) *Alignment {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	var w Walker
	n := len(b)
	best, bestI, bestJ := scoreEnd(a, b, sc, grow(&w.h, n), grow(&w.f, n))
	al := w.Trace(a, b, sc, best, bestI, bestJ, Checkpoints{})
	return &al
}

// Checkpoints are the matrix columns a block walk restarts from. For every
// k >= 1, column c = k·Every keeps, for each row i >= 1, H[i][c] at
// Data[(k-1)·Span + (i-1)·Stride] and E[i][c+1], the row gap its right
// neighbour enters with, EOff entries further on. Values are exact: H of a
// cell below the int16 rail, and E never below -(q+r) >= -16384 once a
// column of H >= 0 lies to its left, so an int16 clipped at -32768 holds
// it. The zero value keeps none, and the walk then recomputes one block
// from column 0.
type Checkpoints struct {
	Data                      []int16
	Every, Span, Stride, EOff int
}

// Walker is the block walk's scratch, reused across traces: the current
// block's direction bytes, its row vectors and left boundary, and the op
// path. The zero Walker is ready; it is not safe for concurrent use.
type Walker struct {
	d            []byte
	h, f, hl, el []int
	ops          []Op
	// The current block covers columns c0+1 .. c0+width.
	c0, width int
}

// Trace recovers the local alignment of a against b that ends at the
// 1-based cell (endI, endJ) with score best, which must be the first cell
// holding the matrix maximum in row-major order, the cell scoreEnd
// returns. It walks the path back to the nearest zero cell, recomputing
// direction bytes for the block of ck.Every columns it stands in, over rows
// 1 to its current row, from the checkpoint to the block's left, and moving
// one block left when the path crosses the block's edge. Each cell's byte
// is the one a single pass from column 0 would write, so the path is
// Align's, ties included. Scratch is one byte per cell of a block plus
// O(endI + ck.Every) words. The result's Ops alias w until the next Trace.
//
//sw:hotpath
func (w *Walker) Trace(a, b []alphabet.Code, sc Scoring, best, endI, endJ int, ck Checkpoints) Alignment {
	out := Alignment{Score: best, a: a, b: b, alpha: sc.Matrix.Alphabet()}
	if best == 0 {
		return out
	}
	ops := grow(&w.ops, endI+endJ)
	k := len(ops)
	i, j := endI, endJ
	w.c0 = endJ // no block yet
walk:
	for i > 0 && j > 0 {
		if j <= w.c0 {
			w.block(a, b, sc, i, j, endJ, &ck)
		}
		cell := w.d[(i-1)*w.width+j-1-w.c0]
		switch cell & dirSrc {
		case dirZero:
			break walk
		case dirDiag:
			k--
			ops[k] = OpMatch
			if a[i-1] == b[j-1] {
				out.Identities++
			}
			i, j = i-1, j-1
		case dirE: // gaps consuming b, back to the cell E opened from
			for {
				k--
				ops[k] = OpDeleteB
				j--
				if cell&dirEOpen != 0 {
					break
				}
				if j <= w.c0 {
					w.block(a, b, sc, i, j, endJ, &ck)
				}
				cell = w.d[(i-1)*w.width+j-1-w.c0]
			}
		case dirF: // gaps consuming a, within the block's column
			for {
				k--
				ops[k] = OpInsertA
				i--
				if cell&dirFOpen != 0 {
					break
				}
				cell = w.d[(i-1)*w.width+j-1-w.c0]
			}
		}
	}
	out.Ops = ops[k:]
	out.AStart, out.AEnd = i, endI
	out.BStart, out.BEnd = j, endJ
	return out
}

// block recomputes the direction bytes of the column block holding column
// j (1-based) over rows 1..i: columns k·every+1 up to (k+1)·every, the last
// block cut at endJ, from checkpoint k's column, or from column 0 when k
// is 0. Without checkpoints one block spans every column up to endJ.
//
//sw:hotpath
func (w *Walker) block(a, b []alphabet.Code, sc Scoring, i, j, endJ int, ck *Checkpoints) {
	every := ck.Every
	if every <= 0 {
		every = endJ
	}
	k := (j - 1) / every
	c0 := k * every
	c1 := min(c0+every, endJ)
	var hl, el []int
	if k > 0 {
		hl, el = grow(&w.hl, i), grow(&w.el, i)
		base := (k - 1) * ck.Span
		for r := range hl {
			x := base + r*ck.Stride
			hl[r], el[r] = int(ck.Data[x]), int(ck.Data[x+ck.EOff])
		}
	}
	w.c0, w.width = c0, c1-c0
	w.d = grow(&w.d, i*w.width)
	directions(a[:i], b[c0:c1], sc, hl, el, grow(&w.h, w.width), grow(&w.f, w.width), w.d)
}

//sw:hotpath
func grow[T byte | int | Op](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

// directions reruns scoreEnd's recurrence over a × b and writes each
// cell's direction byte to d, row-major, len(a)·len(b) bytes. h and f are
// scratch of len(b) entries. hl and el are the left boundary, row by row:
// H of the column before b's first and E of b's first column; nil is
// column 0 of the matrix (H 0, no gap). The bits come from the sign bits
// of differences rather than from branches: open-versus-extend is a coin
// flip on unrelated sequences, and a mispredicted branch per cell halves
// the rate.
//
//sw:hotpath
func directions(a, b []alphabet.Code, sc Scoring, hl, el, h, f []int, d []byte) {
	qr := sc.GapOpen + sc.GapExtend
	r := sc.GapExtend
	n := len(b)
	h, f = h[:n], f[:n]
	for j := range h {
		h[j], f[j] = 0, negInf
	}
	for i, c := range a {
		row := sc.Matrix.Row(c)
		dr := d[i*n : (i+1)*n]
		diag, left, e := 0, 0, negInf
		if hl != nil {
			left = hl[i]
			if i > 0 {
				diag = hl[i-1]
			}
			// Enter with the E whose extension is el[i]: the open from
			// left reaches it exactly when E[i][first] opened there.
			e = el[i] + r
		}
		for j, cb := range b {
			up := h[j]
			eExt, eOpen := e-r, left-qr
			e = max(eExt, eOpen)
			fExt, fOpen := f[j]-r, up-qr
			fij := max(fExt, fOpen)
			f[j] = fij
			gaps := (1-neg(eOpen-eExt))<<2 | (1-neg(fOpen-fExt))<<3
			dg := diag + int(row[cb])
			hij := max(max(dg, fij, 0), e) // e last, as in scoreEnd
			diag, left, h[j] = up, hij, hij
			// src is dirZero when hij is 0, else the first of dirDiag, dirE
			// and dirF whose candidate equals hij. hij is at least each
			// candidate, so one equals it exactly when candidate-hij is not
			// negative.
			notDiag := neg(dg - hij)
			src := (1 + notDiag + notDiag&neg(e-hij)) & -neg(-hij)
			dr[j] = byte(src | gaps)
		}
	}
}

// neg is 1 when x < 0 and 0 otherwise.
func neg(x int) int { return int(uint(x) >> (bits.UintSize - 1)) }

// CIGAR renders the op path in run-length CIGAR notation, e.g. "12M2D5M".
func (al *Alignment) CIGAR() string {
	if len(al.Ops) == 0 {
		return "*"
	}
	var sb strings.Builder
	run, cur := 0, al.Ops[0]
	flush := func() { fmt.Fprintf(&sb, "%d%c", run, cur) }
	for _, op := range al.Ops {
		if op == cur {
			run++
			continue
		}
		flush()
		run, cur = 1, op
	}
	flush()
	return sb.String()
}

// Format renders a three-line human-readable alignment (query, midline,
// subject) wrapped at width columns (60 when width <= 0), in the letters of
// the scoring matrix's alphabet.
func (al *Alignment) Format(width int) string {
	if len(al.Ops) == 0 {
		return "(no alignment)"
	}
	if width <= 0 {
		width = 60
	}
	var qRow, mRow, sRow []byte
	i, j := al.AStart, al.BStart
	for _, op := range al.Ops {
		switch op {
		case OpMatch:
			qa, sb := al.a[i], al.b[j]
			qRow = append(qRow, al.alpha.Decode(qa))
			sRow = append(sRow, al.alpha.Decode(sb))
			if qa == sb {
				mRow = append(mRow, '|')
			} else {
				mRow = append(mRow, ' ')
			}
			i++
			j++
		case OpInsertA:
			qRow = append(qRow, al.alpha.Decode(al.a[i]))
			sRow = append(sRow, '-')
			mRow = append(mRow, ' ')
			i++
		case OpDeleteB:
			qRow = append(qRow, '-')
			sRow = append(sRow, al.alpha.Decode(al.b[j]))
			mRow = append(mRow, ' ')
			j++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "score=%d identities=%d/%d a[%d:%d] b[%d:%d]\n",
		al.Score, al.Identities, len(al.Ops), al.AStart, al.AEnd, al.BStart, al.BEnd)
	for off := 0; off < len(qRow); off += width {
		end := off + width
		if end > len(qRow) {
			end = len(qRow)
		}
		fmt.Fprintf(&sb, "A: %s\n   %s\nB: %s\n", qRow[off:end], mRow[off:end], sRow[off:end])
	}
	return sb.String()
}
