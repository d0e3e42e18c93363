package heterosw

import (
	"context"
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
// public Align). The published path itself, the segments, the CIGAR 2M1I2M
// (the G of the query against the gap) and 4 identities, is pinned through
// swalign.Align, the public Align and Cluster.Do's traceback phase.
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
	if s := scoreList(t, db, res)[1]; s != want || res.Hits[0].ID != "textbook" {
		t.Fatalf("Cluster.Search: textbook subject scored %d (top hit %s), want %d", s, res.Hits[0].ID, want)
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

	// The pairwise oracle.
	sc := swalign.Scoring{Matrix: submat.BLOSUM50, GapOpen: 0, GapExtend: 8}
	if got := swalign.Score(q.Residues, sdb.Seq(0).Residues, sc); got != want {
		t.Errorf("swalign.Score = %d, want %d", got, want)
	}
	checkAnchorPath(t, db, query, subject, "textbook", opt, anchorPath{want, 4, 9, 1, 5, "2M1I2M", 4})
}

// TestHandDerivedAffineGap anchors a traceback whose optimal path holds a
// two-residue gap under an affine penalty with a nonzero open cost: the
// query WWWWGGWWWW against the subject WWWWWWWW, BLOSUM62, the paper's gap
// open 10 and extend 2, so a gap of x residues costs 10 + 2x (Eq. 5).
//
//   - Gapping the query's GG and matching all eight subject W's scores
//     8 × 11 (W/W) − (10 + 2·2) = 88 − 14 = 74, CIGAR 4M2I4M over the
//     whole of both sequences, 8 identities.
//   - Eight W/W columns need the query's two G's out of the way, and the
//     cheapest way is one gap of 2 (14; two gaps of 1 cost 24). Seven W/W
//     columns without a gap are impossible: the G's split the query's W's
//     4 + 4, so an ungapped diagonal matches at most 6 of them with both
//     G's against W (BLOSUM62 −2 each): 66 − 4 = 62. With a gap of one, at
//     least one G stays against a W: 4 × 11 − 12 − 2 + 3 × 11 = 63.
//   - Any path with the gap elsewhere than over GG leaves a G against a W
//     and one W/W column fewer, so the path is unique.
func TestHandDerivedAffineGap(t *testing.T) {
	const (
		query   = "WWWWGGWWWW"
		subject = "WWWWWWWW"
	)
	db, err := NewDatabase([]Sequence{
		NewSequence("other1", "MKTAYIAKQR"),
		NewSequence("anchor", subject),
		NewSequence("other2", "GGSGGSGG"),
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Matrix: "BLOSUM62", GapOpen: 10, GapExtend: 2}
	checkAnchorPath(t, db, query, subject, "anchor", opt, anchorPath{74, 0, 10, 0, 8, "4M2I4M", 8})
}

// anchorPath is a hand-derived local alignment: its score, the query and
// subject segments as half-open ranges, its CIGAR and identities.
type anchorPath struct {
	score          int
	qs, qe, ss, se int
	cigar          string
	identities     int
}

// checkAnchorPath pins want through the pairwise oracle (internal/swalign),
// the public Align and Cluster.Do's traceback phase, where the hit named
// id in db must come first.
func checkAnchorPath(t *testing.T, db *Database, query, subject, id string, opt Options, want anchorPath) {
	t.Helper()
	m, err := submat.ByName(opt.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	sc := swalign.Scoring{Matrix: m, GapOpen: opt.GapOpen, GapExtend: opt.GapExtend}
	al := swalign.Align(sequence.FromString("q", query).Residues, sequence.FromString("s", subject).Residues, sc)
	got := anchorPath{al.Score, al.AStart, al.AEnd, al.BStart, al.BEnd, al.CIGAR(), al.Identities}
	if got != want {
		t.Errorf("swalign.Align = %+v, want %+v", got, want)
	}

	pub, err := Align(NewSequence("q", query), NewSequence("s", subject),
		AlignOptions{Matrix: opt.Matrix, GapOpen: opt.GapOpen, GapExtend: opt.GapExtend, NoGapDefaults: true})
	if err != nil {
		t.Fatal(err)
	}
	got = anchorPath{score: pub.Score(), cigar: pub.CIGAR(), identities: pub.Identities()}
	got.qs, got.qe, got.ss, got.se = pub.Coordinates()
	if got != want {
		t.Errorf("Align = %+v, want %+v", got, want)
	}

	cl, err := NewCluster(db, ClusterOptions{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Do(context.Background(), Request{Query: NewSequence("q", query), Report: ReportOptions{Alignments: true, TopK: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].ID != id || res.Hits[0].Alignment == nil {
		t.Fatalf("Cluster.Do: hits %+v, want %s first with an alignment", res.Hits, id)
	}
	h, ha := res.Hits[0], res.Hits[0].Alignment
	got = anchorPath{h.Score, ha.QueryStart, ha.QueryEnd, ha.SubjectStart, ha.SubjectEnd, ha.CIGAR, ha.Identities}
	if got != want {
		t.Errorf("Cluster.Do = %+v, want %+v", got, want)
	}
}
