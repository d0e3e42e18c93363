package core

import (
	"bytes"
	"slices"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/device"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/vec"
)

// metamorphicScales are the factors c of the scaling relation. BLOSUM62's
// entries span -4..11, so every c here keeps the scaled entries inside the
// matrix's int8 cells; at c = 11 (W/W scores 121) a run of three W's
// already scores past the byte rail (255) and one of 271 past the 16-bit
// one (32,767).
var metamorphicScales = []int{2, 3, 5, 7, 11}

// metamorphicMaxQuery caps the fuzzed query: long enough for a W run to
// pass the 16-bit rail at c = 11, short enough that the eight searches of
// one input, under every tier and both lane widths, stay fast.
const metamorphicMaxQuery = 400

// scaledMatrix returns m with every entry multiplied by c.
func scaledMatrix(t testing.TB, m *submat.Matrix, c int) *submat.Matrix {
	t.Helper()
	n := m.Size()
	cells := make([]int8, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			cells[a*n+b] = int8(c * m.Score(alphabet.Code(a), alphabet.Code(b)))
		}
	}
	sm, err := submat.New(m.Name()+"x", m.Alphabet(), cells)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// reversedDB is db with every sequence reversed, in the same caller order.
func reversedDB(db *seqdb.Database, sorted bool) *seqdb.Database {
	seqs := make([]*sequence.Sequence, db.Len())
	for i := range seqs {
		seqs[i] = &sequence.Sequence{ID: db.Seq(i).ID, Residues: reversed(db.Seq(i).Residues)}
	}
	return seqdb.New(seqs, sorted)
}

func reversed(codes []alphabet.Code) []alphabet.Code {
	out := make([]alphabet.Code, len(codes))
	for i, c := range codes {
		out[len(codes)-1-i] = c
	}
	return out
}

// metamorphicSearch runs one engine search — the precision ladder and the
// long-subject kernel, as every search runs them — of query over db on a
// host packing byteLanes-wide byte groups, and returns the scores and the
// ladder's escalation counts.
func metamorphicSearch(t testing.TB, db *seqdb.Database, query []alphabet.Code, m *submat.Matrix, gapOpen, gapExtend, byteLanes, longThr int) ([]int32, Stats) {
	t.Helper()
	dev := *device.Xeon()
	dev.Lanes = byteLanes / 2
	eng, err := NewEngine(db, &dev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(&sequence.Sequence{ID: "q", Residues: query}, SearchOptions{
		Params:           Params{Variant: IntrinsicSP, GapOpen: gapOpen, GapExtend: gapExtend},
		Matrix:           m,
		LongSeqThreshold: longThr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores, res.Stats
}

// checkMetamorphic checks five relations that hold for any exact
// Smith-Waterman score, with no oracle to compare against:
//
//   - reversal: score(reverse q, reverse s) = score(q, s), since reversing
//     both sequences reverses every alignment path and keeps its score;
//   - scaling: multiplying the matrix and both gap penalties by c
//     multiplies every path's score, and so the best one, by c;
//   - symmetry: score(q, s) = score(s, q) under BLOSUM62, a symmetric
//     matrix, since swapping the sequences transposes every path and keeps
//     its score (checked on the best-scoring subject, searched as the
//     query against a database holding q alone);
//   - extension: appending residues to a subject never lowers its score,
//     since every path of the subject is a path of the longer one;
//   - self-hit: q against itself scores at least the ungapped diagonal sum
//     Σ V(qᵢ, qᵢ), the score of one of its paths.
//
// Scaling pushes the same alignments toward the byte and 16-bit rails, so
// it drives the ladder's 8→16→32 escalation. Every relation is checked on
// every vec tier the host runs, at both host byte-group widths, and every
// tier must agree with the first on the scores themselves. It returns the
// escalation counts of the scaled searches.
func checkMetamorphic(t *testing.T, qRaw, dbRaw []byte, scaleSel, penSel, longSel uint8) Stats {
	t.Helper()
	query := fuzzResidues(qRaw, metamorphicMaxQuery)
	sorted := longSel&2 == 0
	db := fuzzDatabase(dbRaw, sorted, alphabet.Protein)
	if db == nil {
		return Stats{}
	}
	rdb, rquery := reversedDB(db, sorted), reversed(query)
	c := metamorphicScales[int(scaleSel)%len(metamorphicScales)]
	gapOpen, gapExtend := int(penSel&0x0F), int(penSel>>4)
	longThr := 0 // the default routing
	if longSel&1 == 1 {
		longThr = 48 // most subjects take the long-subject kernel
	}
	base, scaled := submat.BLOSUM62, scaledMatrix(t, submat.BLOSUM62, c)
	// edb is db with every subject extended by up to 32 residues of the
	// next one, then the query itself: the extension and self-hit
	// relations read one search of it. qdb holds the query alone, for the
	// symmetry relation.
	n := db.Len()
	seqs := make([]*sequence.Sequence, n, n+1)
	for i := range seqs {
		next := db.Seq((i + 1) % n).Residues
		seqs[i] = &sequence.Sequence{ID: db.Seq(i).ID, Residues: slices.Concat(db.Seq(i).Residues, next[:min(len(next), 32)])}
	}
	var qdb *seqdb.Database
	var diag int32
	if len(query) > 0 {
		seqs = append(seqs, &sequence.Sequence{ID: "q", Residues: query})
		qdb = seqdb.New(seqs[n:], sorted)
		for _, r := range query {
			diag += int32(base.Score(r, r))
		}
	}
	edb := seqdb.New(seqs, sorted)

	var ref []int32
	var escalations Stats
	for _, tr := range vec.Tiers() {
		prev := vec.CapTier(tr)
		for _, byteLanes := range []int{32, 64} {
			got, _ := metamorphicSearch(t, db, query, base, gapOpen, gapExtend, byteLanes, longThr)
			rev, _ := metamorphicSearch(t, rdb, rquery, base, gapOpen, gapExtend, byteLanes, longThr)
			up, st := metamorphicSearch(t, db, query, scaled, c*gapOpen, c*gapExtend, byteLanes, longThr)
			ext, _ := metamorphicSearch(t, edb, query, base, gapOpen, gapExtend, byteLanes, longThr)
			escalations.Overflows8 += st.Overflows8
			escalations.Overflows += st.Overflows
			if ref == nil {
				ref = got
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("[%v, %d byte lanes] seq %d scored %d, first tier %d", tr, byteLanes, i, got[i], ref[i])
				}
				if rev[i] != got[i] {
					t.Fatalf("[%v, %d byte lanes] seq %d (%daa, q=%daa, gaps %d/%d): reversed pair scored %d, forward %d",
						tr, byteLanes, i, db.Seq(i).Len(), len(query), gapOpen, gapExtend, rev[i], got[i])
				}
				if want := int32(c) * got[i]; up[i] != want {
					t.Fatalf("[%v, %d byte lanes] seq %d (%daa, q=%daa, gaps %d/%d): x%d scored %d, want %d",
						tr, byteLanes, i, db.Seq(i).Len(), len(query), gapOpen, gapExtend, c, up[i], want)
				}
				if ext[i] < got[i] {
					t.Fatalf("[%v, %d byte lanes] seq %d (%daa, q=%daa, gaps %d/%d): extended to %daa it scored %d, below %d",
						tr, byteLanes, i, db.Seq(i).Len(), len(query), gapOpen, gapExtend, edb.Seq(i).Len(), ext[i], got[i])
				}
			}
			if qdb == nil {
				continue
			}
			if ext[n] < diag {
				t.Fatalf("[%v, %d byte lanes] q=%daa, gaps %d/%d: self-hit scored %d, below the diagonal's %d",
					tr, byteLanes, len(query), gapOpen, gapExtend, ext[n], diag)
			}
			best := slices.Index(got, slices.Max(got))
			if sym, _ := metamorphicSearch(t, qdb, db.Seq(best).Residues, base, gapOpen, gapExtend, byteLanes, longThr); sym[0] != got[best] {
				t.Fatalf("[%v, %d byte lanes] seq %d (%daa, q=%daa, gaps %d/%d): swapped pair scored %d, forward %d",
					tr, byteLanes, best, db.Seq(best).Len(), len(query), gapOpen, gapExtend, sym[0], got[best])
			}
		}
		vec.CapTier(prev)
	}
	return escalations
}

// FuzzMetamorphic fuzzes the five relations of checkMetamorphic over
// random queries, databases, scale factors, gap penalties and long-subject
// routing.
func FuzzMetamorphic(f *testing.F) {
	w := byte(17) // 'W', the highest-scoring self-match in BLOSUM62
	paperPens := uint8(10 | 2<<4)
	wRun := bytes.Repeat([]byte{w}, 60)
	f.Add([]byte("MKWVLA"), []byte("MKWVLA\xffCCQEGHIL\xffW"), uint8(0), paperPens, uint8(0))
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE\xffEAWHPAE"), uint8(4), uint8(0|8<<4), uint8(1))
	// At x11, W runs cross the byte rail (with the paper's gaps they start
	// at 16 bits: 11 x 12 > 127); TestMetamorphicScalingEscalates runs the
	// W run that also crosses the 16-bit one.
	f.Add(wRun[:40], append(append([]byte{}, wRun[:30]...), append([]byte{fuzzSeqDelim}, wRun[:5]...)...), uint8(4), uint8(1|1<<4), uint8(0))
	f.Add(wRun[:60], append(append([]byte{}, wRun[:60]...), append([]byte{fuzzSeqDelim}, wRun[:60]...)...), uint8(4), paperPens, uint8(1))
	// Gapped near-copies: a deletion and an insertion force E and F paths,
	// and reversal turns each into the other's mirror image.
	homolog := []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPFDEHVK")
	gapped := append(append(append([]byte{}, homolog[:12]...), homolog[15:40]...), fuzzSeqDelim)
	gapped = append(append(append(gapped, homolog[:12]...), 'P', 'P', 'P'), homolog[12:40]...)
	f.Add(homolog[:40], gapped, uint8(1), paperPens, uint8(2))
	f.Add(homolog[:40], gapped, uint8(3), uint8(0), uint8(3))
	// Symmetry, extension and the self-hit over the byte rail at the
	// paper's gaps: the best subject, the whole homolog with a deletion and
	// an insertion, scores 288 (its swapped pair and its extension score as
	// much or more), and the query's diagonal sums to 329.
	near := append(append(append([]byte{}, homolog[:12]...), homolog[15:30]...), 'P', 'P', 'P')
	near = append(append(append(near, homolog[30:]...), fuzzSeqDelim), homolog[40:]...)
	f.Add(homolog, near, uint8(0), paperPens, uint8(0))

	f.Fuzz(func(t *testing.T, qRaw, dbRaw []byte, scaleSel, penSel, longSel uint8) {
		checkMetamorphic(t, qRaw, dbRaw, scaleSel, penSel, longSel)
	})
}

// The scaling relation reaches every rung: on the W-run seed at x11 with
// gaps 1/1 the scaled search escalates lanes 8→16 and 16→32.
func TestMetamorphicScalingEscalates(t *testing.T) {
	wRun := bytes.Repeat([]byte{17}, 320)
	db := append(append([]byte{}, wRun...), append([]byte{fuzzSeqDelim}, wRun[:40]...)...)
	st := checkMetamorphic(t, wRun, db, 4, 1|1<<4, 0)
	if st.Overflows8 == 0 || st.Overflows == 0 {
		t.Fatalf("scaled search escalated %d lanes 8→16 and %d 16→32; want both > 0", st.Overflows8, st.Overflows)
	}
}
