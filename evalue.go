package heterosw

import (
	"heterosw/internal/stats"
)

// Significance is a fitted statistical model of a search's null score
// distribution, for converting raw Smith-Waterman scores into E-values
// (the expected number of equal-or-better chance hits in a database of
// this size) — the significance measure BLAST-style tools report; see
// ReportOptions.EValues.
type Significance struct {
	impl *stats.EValueModel
}

// EValue returns the expected number of database subjects reaching score s
// by chance; values well below 1 indicate likely homology.
func (s *Significance) EValue(score int) float64 { return s.impl.EValue(score) }

// PValue returns the probability of one unrelated subject reaching score
// s.
func (s *Significance) PValue(score int) float64 { return s.impl.PValue(score) }

// BitScore converts a raw score into the fitted model's bit scale.
func (s *Significance) BitScore(score int) float64 { return s.impl.BitScore(score) }

// String summarises the fitted parameters.
func (s *Significance) String() string { return s.impl.String() }
