package heterosw

import (
	"fmt"

	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
)

// AlignOptions configures pairwise alignment. The zero value uses the
// alphabet's conventional matrix (BLOSUM62 for protein, NUC for DNA) with
// gap open 10 and extend 2, the paper's parameters.
type AlignOptions struct {
	// Matrix is a built-in substitution matrix name (the first sequence's
	// alphabet default when empty).
	Matrix string
	// GapOpen and GapExtend are the affine penalties (10/2 when zero;
	// set NoGapDefaults for literal zeros).
	GapOpen, GapExtend int
	NoGapDefaults      bool
}

func (o AlignOptions) scoringFor(alpha *alphabet.Alphabet) (swalign.Scoring, error) {
	name := o.Matrix
	if name == "" {
		if alpha == alphabet.DNA {
			name = "NUC"
		} else {
			name = "BLOSUM62"
		}
	}
	m, err := submat.ByName(name)
	if err != nil {
		return swalign.Scoring{}, err
	}
	gapOpen, gapExtend := o.GapOpen, o.GapExtend
	if !o.NoGapDefaults {
		if gapOpen == 0 {
			gapOpen = 10
		}
		if gapExtend == 0 {
			gapExtend = 2
		}
	}
	sc := swalign.Scoring{Matrix: m, GapOpen: gapOpen, GapExtend: gapExtend}
	return sc, sc.Validate()
}

// Alignment is the outcome of a pairwise local alignment with traceback.
type Alignment struct {
	impl *swalign.Alignment
}

// Score returns the optimal local alignment score.
func (a *Alignment) Score() int { return a.impl.Score }

// Identities returns the number of identical aligned residue pairs.
func (a *Alignment) Identities() int { return a.impl.Identities }

// Coordinates returns the aligned segments as half-open ranges
// [aStart,aEnd) of the first sequence and [bStart,bEnd) of the second.
func (a *Alignment) Coordinates() (aStart, aEnd, bStart, bEnd int) {
	return a.impl.AStart, a.impl.AEnd, a.impl.BStart, a.impl.BEnd
}

// CIGAR renders the alignment path in run-length notation, e.g. "12M2D5M".
func (a *Alignment) CIGAR() string { return a.impl.CIGAR() }

// Format renders a three-line human-readable alignment wrapped at width
// columns (60 when width <= 0).
func (a *Alignment) Format(width int) string { return a.impl.Format(width) }

// Align computes the optimal local alignment between two sequences with
// the dynamic-programming recurrence and backtracking (Section II of the
// paper, steps 1-4), holding at most one byte per len(a) × len(b) cell.
func Align(a, b Sequence, opt AlignOptions) (*Alignment, error) {
	if a.impl == nil || b.impl == nil {
		return nil, fmt.Errorf("heterosw: zero-value sequence")
	}
	sc, err := opt.scoringFor(a.impl.Alphabet())
	if err != nil {
		return nil, err
	}
	return &Alignment{impl: swalign.Align(a.impl.Residues, b.impl.Residues, sc)}, nil
}

// Score computes only the optimal local alignment score, in linear space.
func Score(a, b Sequence, opt AlignOptions) (int, error) {
	if a.impl == nil || b.impl == nil {
		return 0, fmt.Errorf("heterosw: zero-value sequence")
	}
	sc, err := opt.scoringFor(a.impl.Alphabet())
	if err != nil {
		return 0, err
	}
	return swalign.Score(a.impl.Residues, b.impl.Residues, sc), nil
}

// ScoreBanded computes a banded local alignment score around the given
// diagonal (j - i = diag): the rescoring primitive of seed-and-extend
// pipelines. The result is a lower bound on Score, equal whenever the
// optimal alignment stays within the band.
func ScoreBanded(a, b Sequence, diag, band int, opt AlignOptions) (int, error) {
	if a.impl == nil || b.impl == nil {
		return 0, fmt.Errorf("heterosw: zero-value sequence")
	}
	sc, err := opt.scoringFor(a.impl.Alphabet())
	if err != nil {
		return 0, err
	}
	return swalign.ScoreBanded(a.impl.Residues, b.impl.Residues, sc, diag, band), nil
}
