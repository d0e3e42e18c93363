package main

import (
	"math/rand/v2"
	"testing"

	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
)

// The oracle is independent of the repository's aligners by construction;
// this is where the two are shown to agree.
func TestOracleMatchesSwalign(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: gapOpen, GapExtend: gapExtend}
	body := genBody(5, 50)
	qs := newQueryStream(5, streamLoad, "q", body)
	for i := 0; i < 200; i++ {
		// Half related pairs (a query against a random subject, often its
		// donor's neighbour), half unrelated random sequences.
		var a, b []byte
		if i%2 == 0 {
			a, b = qs.next(20+rng.IntN(300)).Res, body[rng.IntN(len(body))].Res
		} else {
			a, b = randomResidues(rng, 1+rng.IntN(200)), randomResidues(rng, 1+rng.IntN(400))
		}
		want := swalign.Score(sequence.FromString("a", string(a)).Residues, sequence.FromString("b", string(b)).Residues, sc)
		if got := swScore(a, b); got != want {
			t.Fatalf("pair %d (%d x %d): oracle %d, swalign %d", i, len(a), len(b), got, want)
		}
	}
	// And one pair that is certainly homologous.
	q := qs.next(150)
	donor := body[0]
	for _, r := range body {
		if r.ID == q.Donor {
			donor = r
		}
	}
	want := swalign.Score(sequence.FromString("q", string(q.Res)).Residues, sequence.FromString("d", string(donor.Res)).Residues, sc)
	if got := swScore(q.Res, donor.Res); got != want || got < 200 {
		t.Fatalf("donor pair: oracle %d, swalign %d", got, want)
	}
}
