// Package stats estimates the statistical significance of Smith-Waterman
// database-search scores. Local-alignment scores of unrelated random
// sequences follow an extreme-value (Gumbel) distribution
// (Karlin & Altschul); instead of shipping precomputed parameters for a
// single matrix, the model is fitted empirically to the score list of the
// search itself — the bulk of a database is effectively random with
// respect to any one query, so the sample is dominated by the null
// distribution and true homologs appear as extreme outliers.
package stats

import (
	"fmt"
	"math"
)

// EValueModel is a fitted Gumbel null model for one search's score list.
type EValueModel struct {
	// Lambda and Mu are the Gumbel parameters of the per-subject null
	// score distribution.
	Lambda, Mu float64
	// N is the number of database sequences the model was fitted over
	// (the trials count converting P-values to E-values).
	N int
	// Trimmed is the number of top scores excluded from the fit as
	// suspected true positives.
	Trimmed int
}

// eulerGamma is the Euler–Mascheroni constant appearing in the Gumbel
// mean.
const eulerGamma = 0.5772156649015329

// fitPlan resolves the trim rule for an n-score sample: the effective
// trim fraction (0 selects the 1% default), the number of top scores to
// exclude, and whether enough usable scores (>= 30) remain. It is the
// single source of the trimming arithmetic, shared by the viability
// pre-check and the fit itself.
func fitPlan(n int, trimFrac float64) (trim int, err error) {
	if trimFrac <= 0 {
		trimFrac = 0.01
	}
	if trimFrac >= 0.5 {
		return 0, fmt.Errorf("stats: trim fraction %v too large", trimFrac)
	}
	trim = int(float64(n) * trimFrac)
	if trim < 1 {
		trim = 1
	}
	if n-trim < 30 {
		return 0, fmt.Errorf("stats: only %d scores after trimming; need >= 30", n-trim)
	}
	return trim, nil
}

// FitViable reports whether a score list of n entries can support a fit
// at the given trim fraction: at least 30 usable scores must remain after
// trimming. It lets callers reject an unsatisfiable fit before computing
// any scores. (A distribution can still be too degenerate — zero variance
// — which only the fit itself can detect.)
func FitViable(n int, trimFrac float64) error {
	_, err := fitPlan(n, trimFrac)
	return err
}

// MaxScore bounds the scores a fit accepts: no alignment this system
// computes comes near it (a 65,536-residue query at 127 a column scores
// under 2^23), and a histogram is this long at most.
const MaxScore = 1 << 24

// FitEValues fits a Gumbel null model to a search's score list by the
// method of moments, after trimming the top trimFrac fraction of scores
// (suspected homologs; 0 selects the 1% default). At least 30 usable
// scores are required (see FitViable). Scores are Smith-Waterman scores:
// non-negative, each at most MaxScore. It is FitHistogram over the list's
// histogram.
func FitEValues[S ~int | ~int32](scores []S, trimFrac float64) (*EValueModel, error) {
	top := 0
	for _, s := range scores {
		if s < 0 || s > MaxScore {
			return nil, fmt.Errorf("stats: score %d outside [0, %d]", s, MaxScore)
		}
		if int(s) > top {
			top = int(s)
		}
	}
	counts := make([]int, top+1)
	for _, s := range scores {
		counts[s]++
	}
	return FitHistogram(counts, trimFrac)
}

// FitHistogram is FitEValues over a score histogram: counts[s] subjects
// scored s. The moments of the trimmed sample are sums of integers, which
// float64 holds exactly below 2^53, so the fit equals the one over the
// sorted score list bit for bit whatever order the scores were counted in —
// without the copy and the sort.
func FitHistogram(counts []int, trimFrac float64) (*EValueModel, error) {
	n := 0
	for s, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("stats: negative count %d for score %d", c, s)
		}
		n += c
	}
	trim, err := fitPlan(n, trimFrac)
	if err != nil {
		return nil, err
	}
	// The sample is the n-trim lowest scores: whole buckets from the
	// bottom, and the part of the boundary bucket that still fits.
	var sum, sumSq float64
	left := n - trim
	for s := 0; left > 0; s++ {
		c := counts[s]
		if c > left {
			c = left
		}
		left -= c
		v := float64(s)
		sum += float64(c) * v
		sumSq += float64(c) * (v * v)
	}
	size := float64(n - trim)
	mean := sum / size
	variance := sumSq/size - mean*mean
	if variance <= 0 {
		return nil, fmt.Errorf("stats: degenerate score distribution (variance %v)", variance)
	}
	// Gumbel: var = pi^2 / (6 lambda^2); mean = mu + gamma / lambda.
	lambda := math.Pi / math.Sqrt(6*variance)
	mu := mean - eulerGamma/lambda
	return &EValueModel{Lambda: lambda, Mu: mu, N: n, Trimmed: trim}, nil
}

// PValue returns the probability that a single unrelated subject scores
// >= s under the null model.
func (m *EValueModel) PValue(s int) float64 {
	z := m.Lambda * (float64(s) - m.Mu)
	// P(S >= s) = 1 - exp(-exp(-z)); use expm1 for precision at large z.
	return -math.Expm1(-math.Exp(-z))
}

// EValue returns the expected number of database subjects scoring >= s by
// chance: N * PValue(s).
func (m *EValueModel) EValue(s int) float64 {
	return float64(m.N) * m.PValue(s)
}

// BitScore converts a raw score to bits under the fitted model, the
// scale-free score used by BLAST-style reports: higher means less likely
// by chance (score mu maps to 0 bits).
func (m *EValueModel) BitScore(s int) float64 {
	return m.Lambda * (float64(s) - m.Mu) / math.Ln2
}

// String summarises the fitted parameters.
func (m *EValueModel) String() string {
	return fmt.Sprintf("gumbel(lambda=%.4f, mu=%.2f) over %d subjects (%d trimmed)",
		m.Lambda, m.Mu, m.N, m.Trimmed)
}
