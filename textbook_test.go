package heterosw

import (
	"testing"

	"heterosw/internal/core"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// TestTextbookDurbinHEAGAWGHEE anchors the search kernel to a score this
// repository did not compute. Durbin, Eddy, Krogh and Mitchison, Biological
// Sequence Analysis (1998), §2.3, the worked Smith-Waterman example: the
// local alignment of HEAGAWGHEE against PAWHEAE under BLOSUM50 with a
// linear gap penalty of 8 per residue (here GapOpen 0, GapExtend 8,
// NoGapDefaults) scores 28, for
//
//	A W G H E
//	A W - H E
//
// whose columns score, from the BLOSUM50 table, A/A +5, W/W +15, the gap
// -8, H/H +10 and E/E +6: 5 + 15 - 8 + 10 + 6 = 28. The query segment is
// HEAGAWGHEE[4:9] and the subject segment PAWHEAE[1:5].
//
// The score is pinned through the serving door (Cluster.Search), through
// core.AlignGroup at both of the ladder's lane widths under every vec tier
// the host runs, and through the pairwise oracle (internal/swalign and the
// public Align).
func TestTextbookDurbinHEAGAWGHEE(t *testing.T) {
	const (
		query   = "HEAGAWGHEE"
		subject = "PAWHEAE"
		want    = 28
	)
	opt := Options{Matrix: "BLOSUM50", GapOpen: 0, GapExtend: 8, NoGapDefaults: true}

	// The serving door, with a few unrelated subjects around the textbook
	// one so it shares its lane group.
	db, err := NewDatabase([]Sequence{
		NewSequence("other1", "MKTAYIAKQR"),
		NewSequence("textbook", subject),
		NewSequence("other2", "GGSGGSGG"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := searchDB(db, NewSequence("q", query), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[1] != want || res.Hits[0].ID != "textbook" {
		t.Fatalf("Cluster.Search: textbook subject scored %d (top hit %s), want %d", res.Scores[1], res.Hits[0].ID, want)
	}

	// The kernel, at the 16-bit rung's and the byte rung's lane widths,
	// under every tier.
	q := sequence.FromString("q", query)
	sdb := seqdb.New([]*sequence.Sequence{sequence.FromString("s", subject)}, true)
	qp := profile.NewQuery(q.Residues, submat.BLOSUM50)
	p := core.Params{GapOpen: 0, GapExtend: 8}
	for _, tr := range vec.Tiers() {
		func() {
			defer vec.CapTier(vec.CapTier(tr))
			for _, lanes := range []int{16, 32} {
				g := sdb.Groups(lanes)[0]
				scores, _ := core.AlignGroup(qp, g, p, core.NewBuffers(lanes))
				for l, idx := range g.SeqIdx {
					if idx == 0 && scores[l] != want {
						t.Errorf("AlignGroup [%v, %d lanes]: %d, want %d", tr, lanes, scores[l], want)
					}
				}
			}
		}()
	}

	// The pairwise oracle, and the public traceback's segments.
	sc := swalign.Scoring{Matrix: submat.BLOSUM50, GapOpen: 0, GapExtend: 8}
	if got := swalign.Score(q.Residues, sdb.Seq(0).Residues, sc); got != want {
		t.Errorf("swalign.Score = %d, want %d", got, want)
	}
	al, err := Align(NewSequence("q", query), NewSequence("s", subject),
		AlignOptions{Matrix: "BLOSUM50", GapOpen: 0, GapExtend: 8, NoGapDefaults: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, qe, ss, se := al.Coordinates()
	if al.Score() != want || qs != 4 || qe != 9 || ss != 1 || se != 5 {
		t.Errorf("Align: score %d over query [%d:%d] and subject [%d:%d], want %d over [4:9] and [1:5]",
			al.Score(), qs, qe, ss, se, want)
	}
}
