package heterosw

import (
	"fmt"

	"heterosw/internal/swalign"
)

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
// paper, steps 1-4), holding at most one byte per len(a) × len(b) cell. It
// scores under opt as a search of a's alphabet does: the zero Options is
// that alphabet's default matrix with gap open 10 and extend 2.
func Align(a, b Sequence, opt Options) (*Alignment, error) {
	sc, err := pairScoring(a, b, opt)
	if err != nil {
		return nil, err
	}
	return &Alignment{impl: swalign.Align(a.impl.Residues, b.impl.Residues, sc)}, nil
}

// Score computes only the optimal local alignment score, in linear space,
// under opt as Align does.
func Score(a, b Sequence, opt Options) (int, error) {
	sc, err := pairScoring(a, b, opt)
	if err != nil {
		return 0, err
	}
	return swalign.Score(a.impl.Residues, b.impl.Residues, sc), nil
}

// pairScoring resolves opt against a's alphabet through the search's own
// resolver, so a pairwise call and a search cannot disagree on the default
// matrix or the gap defaults. Negative gaps are an error here, where the
// aligner would panic.
func pairScoring(a, b Sequence, opt Options) (swalign.Scoring, error) {
	if a.impl == nil || b.impl == nil {
		return swalign.Scoring{}, fmt.Errorf("heterosw: zero-value sequence")
	}
	so, err := opt.toCore()
	if err != nil {
		return swalign.Scoring{}, err
	}
	sc := so.Scoring(a.impl.Alphabet())
	return sc, sc.Validate()
}
