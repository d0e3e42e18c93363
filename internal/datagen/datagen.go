// Package datagen generates the synthetic protein workload that stands in
// for the Swiss-Prot release 2013_11 database used by the paper (541,561
// sequences, 192,480,382 amino acids, longest sequence 35,213 residues).
// Real Swiss-Prot is not redistributable inside this repository, so the
// generator reproduces the statistics that GCUPS measurements are sensitive
// to: the sequence count, the mean length and heavy-tailed length
// distribution, and the Swiss-Prot amino-acid background frequencies. A
// real FASTA dump can be substituted at any time via sequence.ReadFASTAFile.
//
// Everything is deterministic in the seed, so experiments are reproducible
// bit-for-bit.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"heterosw/internal/alphabet"
	"heterosw/internal/sequence"
)

// Swiss-Prot 2013_11 headline statistics (from the paper's Section V.B).
const (
	SwissProtSequences = 541561
	SwissProtResidues  = 192480382
	SwissProtMaxLen    = 35213
)

// swissProtFreq holds amino-acid background frequencies (percent) from the
// Swiss-Prot release notes, indexed by residue letter.
var swissProtFreq = map[byte]float64{
	'A': 8.26, 'R': 5.53, 'N': 4.06, 'D': 5.46, 'C': 1.37,
	'Q': 3.93, 'E': 6.74, 'G': 7.08, 'H': 2.27, 'I': 5.94,
	'L': 9.66, 'K': 5.83, 'M': 2.41, 'F': 3.86, 'P': 4.71,
	'S': 6.56, 'T': 5.34, 'W': 1.09, 'Y': 2.92, 'V': 6.87,
}

// Config parameterises the generator.
type Config struct {
	// Sequences is the number of database sequences.
	Sequences int
	// Seed makes the output deterministic.
	Seed int64
	// MeanLen and SigmaLog shape the log-normal length distribution.
	// The defaults reproduce Swiss-Prot's mean length of ~355.
	MeanLen  float64
	SigmaLog float64
	// MaxLen truncates the length tail.
	MaxLen int
}

// SwissProtConfig returns a Config reproducing Swiss-Prot 2013_11 scaled by
// the given factor (1.0 = full size; 1/32 is a practical functional-run
// size). The length distribution is scale-invariant.
func SwissProtConfig(scale float64) Config {
	n := int(math.Round(float64(SwissProtSequences) * scale))
	if n < 1 {
		n = 1
	}
	return Config{
		Sequences: n,
		Seed:      20131122, // release 2013_11's vintage, for flavour
		MeanLen:   float64(SwissProtResidues) / float64(SwissProtSequences),
		SigmaLog:  0.62,
		MaxLen:    SwissProtMaxLen,
	}
}

func (c Config) withDefaults() Config {
	if c.MeanLen <= 0 {
		c.MeanLen = 355
	}
	if c.SigmaLog <= 0 {
		c.SigmaLog = 0.62
	}
	if c.MaxLen <= 0 {
		c.MaxLen = SwissProtMaxLen
	}
	return c
}

// sampleLen draws one sequence length from the truncated log-normal.
func sampleLen(rng *rand.Rand, mu, sigma float64, maxLen int) int {
	l := int(math.Round(math.Exp(mu + sigma*rng.NormFloat64())))
	if l < 2 {
		l = 2
	}
	if l > maxLen {
		l = maxLen
	}
	return l
}

// Lengths generates only the sequence-length distribution of a database —
// all the device cost model needs — without materialising residues. This
// is what lets the figure harness simulate the full 541,561-sequence
// Swiss-Prot in milliseconds.
func Lengths(cfg Config) []int {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Log-normal mean is exp(mu + sigma^2/2); solve mu for the target.
	mu := math.Log(cfg.MeanLen) - cfg.SigmaLog*cfg.SigmaLog/2
	out := make([]int, cfg.Sequences)
	for i := range out {
		out[i] = sampleLen(rng, mu, cfg.SigmaLog, cfg.MaxLen)
	}
	// Plant one maximum-length sequence, mirroring Swiss-Prot's titin
	// entry, so padding and blocking see the documented extreme.
	if len(out) >= 1000 {
		out[len(out)/2] = cfg.MaxLen
	}
	return out
}

// residueSampler draws residues from the Swiss-Prot background
// distribution via a 4096-entry lookup table.
type residueSampler struct {
	table [4096]alphabet.Code
}

func newResidueSampler() *residueSampler {
	s := &residueSampler{}
	type fr struct {
		c alphabet.Code
		f float64
	}
	var frs []fr
	var total float64
	for b, f := range swissProtFreq {
		c, ok := alphabet.Protein.Encode(b)
		if !ok {
			panic("datagen: bad frequency table")
		}
		frs = append(frs, fr{c, f})
		total += f
	}
	// Deterministic order (map iteration is random).
	for i := 0; i < len(frs); i++ {
		for j := i + 1; j < len(frs); j++ {
			if frs[j].c < frs[i].c {
				frs[i], frs[j] = frs[j], frs[i]
			}
		}
	}
	idx := 0
	acc := 0.0
	for _, e := range frs {
		acc += e.f
		target := int(math.Round(acc / total * float64(len(s.table))))
		for ; idx < target && idx < len(s.table); idx++ {
			s.table[idx] = e.c
		}
	}
	for ; idx < len(s.table); idx++ {
		s.table[idx] = frs[len(frs)-1].c
	}
	return s
}

func (s *residueSampler) draw(rng *rand.Rand) alphabet.Code {
	return s.table[rng.Intn(len(s.table))]
}

// Generate materialises a full synthetic database: Lengths(cfg) plus
// residues drawn from the Swiss-Prot background distribution.
func Generate(cfg Config) []*sequence.Sequence {
	lengths := Lengths(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	sampler := newResidueSampler()
	out := make([]*sequence.Sequence, len(lengths))
	for i, L := range lengths {
		res := make([]alphabet.Code, L)
		for j := range res {
			res[j] = sampler.draw(rng)
		}
		out[i] = &sequence.Sequence{
			ID:       fmt.Sprintf("SYN%06d", i),
			Desc:     "synthetic Swiss-Prot-like protein",
			Residues: res,
		}
	}
	return out
}

// QuerySpec names one of the paper's 20 benchmark queries.
type QuerySpec struct {
	// Accession is the Swiss-Prot accession the paper lists.
	Accession string
	// Length is the published sequence length.
	Length int
}

// PaperQueries returns the paper's 20 query proteins (Section V.B),
// "ranging in length from 144 to 5478", in ascending length order.
func PaperQueries() []QuerySpec {
	return []QuerySpec{
		{"P02232", 144}, {"P05013", 189}, {"P14942", 222}, {"P07327", 375},
		{"P01008", 464}, {"P03435", 567}, {"P42357", 657}, {"P21177", 729},
		{"Q38941", 850}, {"P27895", 1000}, {"P07756", 1500}, {"P04775", 2005},
		{"P19096", 2504}, {"P28167", 3005}, {"P0C6B8", 3564}, {"P20930", 4061},
		{"P08519", 4548}, {"Q7TMA5", 4743}, {"P33450", 5147}, {"Q9UKN1", 5478},
	}
}

// GenerateQueries synthesises the 20 benchmark queries with the paper's
// exact lengths, deterministically in the seed.
func GenerateQueries(seed int64) []*sequence.Sequence {
	rng := rand.New(rand.NewSource(seed))
	sampler := newResidueSampler()
	specs := PaperQueries()
	out := make([]*sequence.Sequence, len(specs))
	for i, spec := range specs {
		res := make([]alphabet.Code, spec.Length)
		for j := range res {
			res[j] = sampler.draw(rng)
		}
		out[i] = &sequence.Sequence{
			ID:       spec.Accession,
			Desc:     fmt.Sprintf("synthetic stand-in for %s (%d aa)", spec.Accession, spec.Length),
			Residues: res,
		}
	}
	return out
}

// PlantQueries inserts the queries into the database at deterministic
// positions (replacing same-index synthetic entries), mirroring the paper's
// protocol of selecting query sequences from the database itself: each
// query then has a guaranteed perfect hit.
func PlantQueries(db []*sequence.Sequence, queries []*sequence.Sequence) {
	if len(db) == 0 {
		return
	}
	stride := max(len(db)/(len(queries)+1), 1)
	for i, q := range queries {
		pos := (i + 1) * stride % len(db)
		db[pos] = q
	}
}
