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
// order (bestI, bestJ); a second pass over a[:bestI] × b[:bestJ] alone
// keeps one direction byte per cell, and the walk reads the path from
// those bytes. Memory is one byte per cell of that rectangle plus
// O(len(b)) words, where three int32 matrices take 12 bytes per cell of
// (m+1)×(n+1). Ties are broken preferring diagonal moves, then gaps in B,
// matching common tool behaviour. Align panics on invalid scoring; it
// returns a zero-score, empty alignment when either sequence is empty or
// no positive-scoring pair exists.
func Align(a, b []alphabet.Code, sc Scoring) *Alignment {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	out := &Alignment{a: a, b: b, alpha: sc.Matrix.Alphabet()}
	n := len(b)
	rows := make([]int, 2*n)
	best, bestI, bestJ := scoreEnd(a, b, sc, rows[:n], rows[n:])
	out.Score = best
	if best == 0 {
		return out
	}
	// Every cell of the rectangle depends only on cells above and left of
	// it, so its bytes hold the choices the full matrices would.
	d := make([]byte, bestI*bestJ)
	directions(a[:bestI], b[:bestJ], sc, rows[:bestJ], rows[n:n+bestJ], d)

	ops := make([]Op, bestI+bestJ)
	k := len(ops)
	i, j := bestI, bestJ
walk:
	for i > 0 && j > 0 {
		cell := d[(i-1)*bestJ+j-1]
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
				cell = d[(i-1)*bestJ+j-1]
			}
		case dirF: // gaps consuming a
			for {
				k--
				ops[k] = OpInsertA
				i--
				if cell&dirFOpen != 0 {
					break
				}
				cell = d[(i-1)*bestJ+j-1]
			}
		}
	}
	out.Ops = ops[k:]
	out.AStart, out.AEnd = i, bestI
	out.BStart, out.BEnd = j, bestJ
	return out
}

// directions reruns scoreEnd's recurrence over a × b and writes each
// cell's direction byte to d, row-major, len(a)·len(b) bytes. h and f are
// scratch of len(b) entries. The bits come from the sign bits of
// differences rather than from branches: open-versus-extend is a coin flip
// on unrelated sequences, and a mispredicted branch per cell halves the
// rate.
//
//sw:hotpath
func directions(a, b []alphabet.Code, sc Scoring, h, f []int, d []byte) {
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
