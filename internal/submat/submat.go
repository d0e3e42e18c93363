// Package submat provides substitution matrices for Smith-Waterman
// alignment: the standard BLOSUM and PAM families used by protein database
// search tools, generated match/mismatch matrices for nucleotide search,
// and a parser for the NCBI textual matrix format so user-supplied
// matrices can be loaded from disk or submitted over HTTP.
//
// All experiments in the reproduced paper use BLOSUM62 with gap-open 10 and
// gap-extend 2; the other matrices are provided for library completeness.
package submat

import (
	"errors"
	"fmt"

	"heterosw/internal/alphabet"
)

// The ErrBadMatrix family: every way user-supplied matrix text can be
// rejected wraps ErrBadMatrix, so callers (the HTTP front end in
// particular) can test the family with one errors.Is while tests still
// distinguish the failure mode.
var (
	// ErrBadMatrix is the family root: the matrix text is unusable.
	ErrBadMatrix = errors.New("submat: invalid matrix")
	// ErrBadAlphabet marks a header or row label letter outside the
	// target alphabet.
	ErrBadAlphabet = fmt.Errorf("%w: residue outside the alphabet", ErrBadMatrix)
	// ErrNotSquare marks a row whose score count does not match the
	// header, an asymmetric table, or missing matrix data.
	ErrNotSquare = fmt.Errorf("%w: malformed shape", ErrBadMatrix)
	// ErrScoreRange marks a score outside int8 — the storage cells use and
	// exactly the range the 8-bit kernel ladder's signed lanes assume.
	ErrScoreRange = fmt.Errorf("%w: score outside int8", ErrBadMatrix)
)

// Matrix is a symmetric substitution score table over a residue alphabet.
// The zero value is unusable; obtain instances from the package-level
// variables (BLOSUM62 etc.), Parse, MatchMismatch, or New.
type Matrix struct {
	name   string
	alpha  *alphabet.Alphabet
	n      int
	scores []int8 // n x n, row-major
	max    int    // largest score in the table
	min    int    // smallest score in the table
}

// New builds a Matrix over an alphabet from a full row-major score table of
// alpha.Size() x alpha.Size() cells. It returns an error (wrapping
// ErrNotSquare) if the table has the wrong cell count or is not symmetric,
// since the Smith-Waterman recurrences assume V(a,b) == V(b,a).
func New(name string, alpha *alphabet.Alphabet, scores []int8) (*Matrix, error) {
	n := alpha.Size()
	if len(scores) != n*n {
		return nil, fmt.Errorf("%w: %s has %d cells, want %dx%d", ErrNotSquare, name, len(scores), n, n)
	}
	m := &Matrix{name: name, alpha: alpha, n: n,
		scores: scores, max: int(scores[0]), min: int(scores[0])}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := int(scores[i*n+j])
			if s != int(scores[j*n+i]) {
				return nil, fmt.Errorf("%w: %s is asymmetric at (%c,%c): %d vs %d",
					ErrNotSquare, name, alpha.Letters()[i], alpha.Letters()[j], s, scores[j*n+i])
			}
			if s > m.max {
				m.max = s
			}
			if s < m.min {
				m.min = s
			}
		}
	}
	return m, nil
}

// MatchMismatch generates the nucleotide-style scoring scheme of blastn and
// the SSW library over an alphabet: match for identical unambiguous
// residues, mismatch for differing unambiguous residues, and 0 for any
// pair involving an ambiguity code (an N column can never raise or sink an
// alignment). match must be positive and mismatch negative.
func MatchMismatch(name string, alpha *alphabet.Alphabet, match, mismatch int) (*Matrix, error) {
	if match <= 0 || mismatch >= 0 {
		return nil, fmt.Errorf("%w: %s: match %d / mismatch %d (want positive/negative)",
			ErrScoreRange, name, match, mismatch)
	}
	if match > 127 || mismatch < -128 {
		return nil, fmt.Errorf("%w: %s: match %d / mismatch %d", ErrScoreRange, name, match, mismatch)
	}
	n := alpha.Size()
	scores := make([]int8, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case !alpha.IsStandard(alphabet.Code(i)) || !alpha.IsStandard(alphabet.Code(j)):
				scores[i*n+j] = 0
			case i == j:
				scores[i*n+j] = int8(match)
			default:
				scores[i*n+j] = int8(mismatch)
			}
		}
	}
	return New(name, alpha, scores)
}

// Name returns the matrix name, e.g. "BLOSUM62".
func (m *Matrix) Name() string { return m.name }

// Alphabet returns the residue alphabet the matrix scores over.
func (m *Matrix) Alphabet() *alphabet.Alphabet { return m.alpha }

// Size returns the alphabet size n; the table is n x n.
func (m *Matrix) Size() int { return m.n }

// Score returns the substitution score V(a, b).
func (m *Matrix) Score(a, b alphabet.Code) int { return int(m.scores[int(a)*m.n+int(b)]) }

// Row returns the score row for residue a against every alphabet residue.
// The returned slice is shared with the matrix and must not be modified; it
// is exposed so profile construction can copy rows without per-cell calls.
func (m *Matrix) Row(a alphabet.Code) []int8 { return m.scores[int(a)*m.n : (int(a)+1)*m.n] }

// Fingerprint identifies the matrix by content: its alphabet and score
// table, not its name. Two matrices with equal fingerprints score every
// residue pair alike.
func (m *Matrix) Fingerprint() string {
	b := make([]byte, 0, len(m.alpha.Name())+1+len(m.scores))
	b = append(b, m.alpha.Name()...)
	b = append(b, ':')
	for _, s := range m.scores {
		b = append(b, byte(s))
	}
	return string(b)
}

// Max returns the largest score in the matrix (the best possible per-cell
// gain, used for overflow-threshold computation in 16-bit kernels).
func (m *Matrix) Max() int { return m.max }

// Min returns the smallest score in the matrix.
func (m *Matrix) Min() int { return m.min }

// Built-in matrices, parsed once at package initialisation from their NCBI
// textual form. BLOSUM62 is the matrix used by every experiment in the
// paper; the values below are the standard NCBI distribution tables.
// (BLOSUM45/50/80 and PAM250 are transcriptions of the NCBI/EMBOSS data
// files; BLOSUM62 is the canonical table and is additionally locked by
// spot-check tests.) NUC is the blastn-default +2/-3 nucleotide
// match/mismatch scheme over the IUPAC DNA alphabet.
var (
	BLOSUM45 = MustParse("BLOSUM45", blosum45Text)
	BLOSUM50 = MustParse("BLOSUM50", blosum50Text)
	BLOSUM62 = MustParse("BLOSUM62", blosum62Text)
	BLOSUM80 = MustParse("BLOSUM80", blosum80Text)
	PAM250   = MustParse("PAM250", pam250Text)
	NUC      = mustMatchMismatch("NUC.2.3", alphabet.DNA, 2, -3)
)

func mustMatchMismatch(name string, alpha *alphabet.Alphabet, match, mismatch int) *Matrix {
	m, err := MatchMismatch(name, alpha, match, mismatch)
	if err != nil {
		panic(err)
	}
	return m
}

// ByName returns the built-in matrix with the given (case-sensitive) name.
// "NUC" and "DNA" both select the +2/-3 nucleotide scheme.
func ByName(name string) (*Matrix, error) {
	switch name {
	case "BLOSUM45":
		return BLOSUM45, nil
	case "BLOSUM50":
		return BLOSUM50, nil
	case "BLOSUM62":
		return BLOSUM62, nil
	case "BLOSUM80":
		return BLOSUM80, nil
	case "PAM250":
		return PAM250, nil
	case "NUC", "NUC.2.3", "DNA":
		return NUC, nil
	}
	return nil, fmt.Errorf("submat: unknown matrix %q (have BLOSUM45/50/62/80, PAM250, NUC)", name)
}

// Names lists the built-in matrix names.
func Names() []string {
	return []string{"BLOSUM45", "BLOSUM50", "BLOSUM62", "BLOSUM80", "PAM250", "NUC.2.3"}
}
