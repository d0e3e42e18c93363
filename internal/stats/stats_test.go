package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// gumbelSample draws from Gumbel(mu, lambda).
func gumbelSample(rng *rand.Rand, mu, lambda float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return mu - math.Log(-math.Log(u))/lambda
}

func TestFitRecoversKnownParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	const mu, lambda = 40.0, 0.25
	scores := make([]int, 20000)
	for i := range scores {
		scores[i] = int(math.Round(gumbelSample(rng, mu, lambda)))
	}
	m, err := FitEValues(scores, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mu-mu) > 1.5 {
		t.Errorf("mu = %.2f, want ~%.1f", m.Mu, mu)
	}
	if math.Abs(m.Lambda-lambda) > 0.03 {
		t.Errorf("lambda = %.4f, want ~%.2f", m.Lambda, lambda)
	}
}

func TestEValueMonotoneDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	scores := make([]int, 5000)
	for i := range scores {
		scores[i] = int(gumbelSample(rng, 35, 0.3))
	}
	m, err := FitEValues(scores, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for s := 20; s < 200; s += 5 {
		e := m.EValue(s)
		if e > prev {
			t.Fatalf("EValue not decreasing at %d: %v > %v", s, e, prev)
		}
		if e < 0 {
			t.Fatalf("negative EValue %v", e)
		}
		prev = e
	}
}

func TestEValueCalibration(t *testing.T) {
	// ~half the sample should sit above the fitted median: E(median) ~ N/2.
	rng := rand.New(rand.NewSource(502))
	n := 10000
	scores := make([]int, n)
	for i := range scores {
		scores[i] = int(gumbelSample(rng, 50, 0.2))
	}
	m, err := FitEValues(scores, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Median of Gumbel = mu - ln(ln 2)/lambda.
	median := int(m.Mu - math.Log(math.Log(2))/m.Lambda)
	e := m.EValue(median)
	if e < float64(n)/4 || e > float64(n)*3/4 {
		t.Errorf("EValue(median) = %.0f, want ~%d", e, n/2)
	}
	// A far outlier must be overwhelmingly significant.
	if e := m.EValue(int(m.Mu + 100/m.Lambda)); e > 1e-6 {
		t.Errorf("outlier EValue = %v", e)
	}
}

func TestBitScore(t *testing.T) {
	m := &EValueModel{Lambda: 0.25, Mu: 40, N: 1000}
	if got := m.BitScore(40); math.Abs(got) > 1e-9 {
		t.Errorf("BitScore(mu) = %v", got)
	}
	if m.BitScore(80) <= m.BitScore(60) {
		t.Error("BitScore not increasing")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitEValues(make([]int, 10), 0.01); err == nil {
		t.Error("tiny sample accepted")
	}
	same := make([]int, 1000)
	for i := range same {
		same[i] = 42
	}
	if _, err := FitEValues(same, 0.01); err == nil {
		t.Error("degenerate distribution accepted")
	}
	if _, err := FitEValues(make([]int, 1000), 0.9); err == nil {
		t.Error("absurd trim accepted")
	}
}

func TestStringer(t *testing.T) {
	m := &EValueModel{Lambda: 0.25, Mu: 40, N: 1000, Trimmed: 10}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

// fitSortedScores is the fit as it stood before the histogram: copy the
// scores, sort them, drop the top trim, and take the moments of the rest one
// score at a time. FitHistogram must reproduce it bit for bit.
func fitSortedScores(scores []int, trimFrac float64) (*EValueModel, error) {
	n := len(scores)
	trim, err := fitPlan(n, trimFrac)
	if err != nil {
		return nil, err
	}
	sorted := append([]int(nil), scores...)
	sort.Ints(sorted)
	sample := sorted[:n-trim]

	var sum, sumSq float64
	for _, s := range sample {
		v := float64(s)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(len(sample))
	variance := sumSq/float64(len(sample)) - mean*mean
	if variance <= 0 {
		return nil, fmt.Errorf("stats: degenerate score distribution (variance %v)", variance)
	}
	lambda := math.Pi / math.Sqrt(6*variance)
	mu := mean - eulerGamma/lambda
	return &EValueModel{Lambda: lambda, Mu: mu, N: n, Trimmed: trim}, nil
}

func TestFitHistogramMatchesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	gumbel := make([]int, 16000)
	for i := range gumbel {
		gumbel[i] = int(gumbelSample(rng, 38, 0.27))
	}
	// 1,000 scores, the top 400 of them one value: every trim below 40%
	// cuts inside that bucket.
	tied := make([]int, 1000)
	for i := range tied {
		tied[i] = 20 + rng.Intn(30)
		if i >= 600 {
			tied[i] = 77
		}
	}
	rng.Shuffle(len(tied), func(i, j int) { tied[i], tied[j] = tied[j], tied[i] })
	same := make([]int, 1000)
	for i := range same {
		same[i] = 42
	}
	samples := []struct {
		name   string
		scores []int
	}{
		{"gumbel", gumbel},
		{"tied top bucket", tied},
		{"zero variance", same},
		{"too few", gumbel[:25]},
	}
	for _, sm := range samples {
		counts := make([]int, 1+slices.Max(sm.scores))
		for _, s := range sm.scores {
			counts[s]++
		}
		for _, trim := range []float64{0, 0.01, 0.25} {
			want, wantErr := fitSortedScores(sm.scores, trim)
			for path, fit := range map[string]func() (*EValueModel, error){
				"FitHistogram": func() (*EValueModel, error) { return FitHistogram(counts, trim) },
				"FitEValues":   func() (*EValueModel, error) { return FitEValues(sm.scores, trim) },
			} {
				got, err := fit()
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Errorf("%s, trim %v: %s error %v, want %v", sm.name, trim, path, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s, trim %v: %s: %v", sm.name, trim, path, err)
				}
				if math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) ||
					math.Float64bits(got.Mu) != math.Float64bits(want.Mu) ||
					got.N != want.N || got.Trimmed != want.Trimmed {
					t.Errorf("%s, trim %v: %s fitted %+v, the sorted scores %+v", sm.name, trim, path, got, want)
				}
			}
		}
	}
	if _, err := FitEValues([]int{3, -1}, 0); err == nil {
		t.Error("negative score accepted")
	}
	if _, err := FitHistogram([]int{40, -1}, 0); err == nil {
		t.Error("negative count accepted")
	}
}
