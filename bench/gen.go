package main

// Seeded input generator. Every stream (body, tail, each query stream) is
// its own PCG sequence keyed by (seed, stream id), so adding a draw to one
// stream never shifts another, and the same -seed always yields the same
// bytes. The program under test only ever sees the FASTA/.swdb files and
// HTTP bodies rendered from these values.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
)

// Stream ids for rand.NewPCG(seed, id).
const (
	streamBody = iota + 1
	streamTail
	streamWarmup
	streamLoad
	streamPick
	streamFill
)

// Body length distribution: log-normal with Swiss-Prot's mean of 355 and
// sigma_log 0.62, clipped below core.DefaultLongSeqThreshold (3072) so that
// no body subject takes the long-sequence path.
const (
	bodyMeanLen  = 355.0
	bodySigmaLog = 0.62
	bodyMinLen   = 2
	bodyMaxLen   = 3000
)

// Swiss-Prot amino-acid background frequencies (percent, release notes).
var background = []struct {
	letter byte
	pct    float64
}{
	{'A', 8.25}, {'R', 5.53}, {'N', 4.06}, {'D', 5.45}, {'C', 1.37},
	{'Q', 3.93}, {'E', 6.75}, {'G', 7.07}, {'H', 2.27}, {'I', 5.96},
	{'L', 9.66}, {'K', 5.84}, {'M', 2.42}, {'F', 3.86}, {'P', 4.70},
	{'S', 6.56}, {'T', 5.34}, {'W', 1.08}, {'Y', 2.92}, {'V', 6.87},
}

// residueCDF is the cumulative form of background, normalised to 1.
var residueCDF = func() []float64 {
	cdf := make([]float64, len(background))
	sum := 0.0
	for i, b := range background {
		sum += b.pct
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}()

func drawResidue(rng *rand.Rand) byte {
	u := rng.Float64()
	for i, c := range residueCDF {
		if u < c {
			return background[i].letter
		}
	}
	return background[len(background)-1].letter
}

func randomResidues(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = drawResidue(rng)
	}
	return out
}

// record is one generated sequence: an identifier and ASCII residues.
type record struct {
	ID  string
	Res []byte
}

func residues(recs []record) int64 {
	var n int64
	for _, r := range recs {
		n += int64(len(r.Res))
	}
	return n
}

// genBody draws n body subjects. A shorter body is a prefix of a longer one
// drawn from the same seed, so DB-S is contained in DB-M.
func genBody(seed uint64, n int) []record {
	rng := rand.New(rand.NewPCG(seed, streamBody))
	mu := math.Log(bodyMeanLen) - bodySigmaLog*bodySigmaLog/2
	out := make([]record, n)
	for i := range out {
		l := int(math.Round(math.Exp(mu + bodySigmaLog*rng.NormFloat64())))
		l = min(max(l, bodyMinLen), bodyMaxLen)
		out[i] = record{ID: fmt.Sprintf("b%06d", i), Res: randomResidues(rng, l)}
	}
	return out
}

// genTail draws the long-sequence tail for a body of bodyResidues: one
// titin-class subject of titinLen residues, then subjects of
// [tailMinLen, tailMaxLen] until the tail holds share of all residues.
func genTail(seed uint64, bodyResidues int64, sc scale) []record {
	rng := rand.New(rand.NewPCG(seed, streamTail))
	target := int64(math.Ceil(float64(bodyResidues) * sc.tailShare / (1 - sc.tailShare)))
	out := []record{{ID: "t000000", Res: randomResidues(rng, sc.titinLen)}}
	for have := int64(sc.titinLen); have < target; {
		l := sc.tailMinLen + rng.IntN(sc.tailMaxLen-sc.tailMinLen+1)
		out = append(out, record{ID: fmt.Sprintf("t%06d", len(out)), Res: randomResidues(rng, l)})
		have += int64(l)
	}
	return out
}

// writeFASTA renders records as 60-column FASTA.
func writeFASTA(path string, recs []record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		fmt.Fprintf(w, ">%s\n", r.ID)
		for i := 0; i < len(r.Res); i += 60 {
			w.Write(r.Res[i:min(i+60, len(r.Res))])
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// query is one generated query and the body subject its first window was
// cut from.
type query struct {
	ID    string
	Res   []byte
	Donor string
}

// Query windows: 100-600 residues of a body subject with 15% of positions
// redrawn from the background, so every query has true positives and a
// non-trivial traceback.
const (
	windowMin  = 100
	windowMax  = 600
	mutateRate = 0.15
)

// queryStream yields never-repeating chimeric queries over a body.
type queryStream struct {
	rng    *rand.Rand
	body   []record
	prefix string
	n      int
}

func newQueryStream(seed uint64, stream uint64, prefix string, body []record) *queryStream {
	return &queryStream{rng: rand.New(rand.NewPCG(seed, stream)), body: body, prefix: prefix}
}

// next returns a fresh query of exactly length residues: mutated windows of
// randomly chosen body subjects, concatenated and cut to length. A query no
// longer than one window is a single mutated stretch of its donor.
func (qs *queryStream) next(length int) query {
	q := query{ID: fmt.Sprintf("%s%05d", qs.prefix, qs.n), Res: make([]byte, 0, length)}
	qs.n++
	for len(q.Res) < length {
		var donor record
		for {
			donor = qs.body[qs.rng.IntN(len(qs.body))]
			if len(donor.Res) >= windowMin {
				break
			}
		}
		w := windowMin + qs.rng.IntN(windowMax-windowMin+1)
		w = min(w, len(donor.Res), length-len(q.Res))
		at := qs.rng.IntN(len(donor.Res) - w + 1)
		if q.Donor == "" {
			q.Donor = donor.ID
		}
		for _, c := range donor.Res[at : at+w] {
			if qs.rng.Float64() < mutateRate {
				c = drawResidue(qs.rng)
			}
			q.Res = append(q.Res, c)
		}
	}
	return q
}
