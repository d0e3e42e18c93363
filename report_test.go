package heterosw

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"heterosw/internal/sequence"
	"heterosw/internal/stats"
)

// The direct Search path with ReportOptions must produce decorations that
// agree with the standalone pairwise Align oracle under the same Options:
// the protein and DNA alphabets' default matrices and a literal gap pair
// the 10/2 defaults would otherwise replace. Align and the search resolve
// their scoring through one function, so none of them may differ.
func TestSearchReportMatchesAlignOracle(t *testing.T) {
	db, seqs := tinyDB(t)
	dnaDB, dnaQuery, _ := goldenDNASetup(t)
	q := NewSequence("q", "MKWVLAARND")
	for _, tc := range []struct {
		name  string
		db    *Database
		query Sequence
		opt   Options
	}{
		{"protein BLOSUM62 default", db, q, Options{}},
		{"dna NUC default", dnaDB, dnaQuery, Options{}},
		{"protein gaps 0/3", db, q, Options{GapExtend: 3, NoGapDefaults: true}},
	} {
		cl, err := NewCluster(tc.db, ClusterOptions{Options: tc.opt})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Search(tc.query, ReportOptions{Alignments: true, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) != 3 {
			t.Fatalf("%s: %d hits, want 3", tc.name, len(res.Hits))
		}
		for _, h := range res.Hits {
			if h.Alignment == nil {
				t.Fatalf("%s: hit %s undecorated", tc.name, h.ID)
			}
			want, err := Align(tc.query, tc.db.Seq(h.Index), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if h.Score != want.Score() || h.Alignment.CIGAR != want.CIGAR() ||
				h.Alignment.Identities != want.Identities() {
				t.Fatalf("%s: hit %s: {score %d, %s, %d ids}, oracle {%d, %s, %d}", tc.name,
					h.ID, h.Score, h.Alignment.CIGAR, h.Alignment.Identities,
					want.Score(), want.CIGAR(), want.Identities())
			}
			qs, qe, ss, se := want.Coordinates()
			a := h.Alignment
			if a.QueryStart != qs || a.QueryEnd != qe || a.SubjectStart != ss || a.SubjectEnd != se {
				t.Fatalf("%s: hit %s coordinates [%d:%d)x[%d:%d), oracle [%d:%d)x[%d:%d)", tc.name,
					h.ID, a.QueryStart, a.QueryEnd, a.SubjectStart, a.SubjectEnd, qs, qe, ss, se)
			}
		}
	}
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// DoBatch carries each request's report options.
	batch, err := cl.DoBatch(context.Background(), requests([]Sequence{q, seqs[1]}, ReportOptions{Alignments: true, TopK: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if len(r.Hits) != 2 || r.Hits[0].Alignment == nil {
			t.Fatalf("batch result %d undecorated: %+v", i, r.Hits)
		}
	}
}

// A reporting search with no explicit K anywhere bounds the returned hit
// list at defaultReportHits and decorates every returned hit — never a
// partially decorated full-database list.
func TestReportUnboundedTopKIsBounded(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0001, false)  // 54 sequences > defaultReportHits
	cl, err := NewCluster(db, ClusterOptions{}) // cluster TopK 0
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLAARNDCCQEGHIL")
	// A score-only search over the same cluster stays unbounded.
	plain, err := cl.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Hits) != db.Len() {
		t.Fatalf("score-only search returned %d hits, want %d", len(plain.Hits), db.Len())
	}
	full, err := stats.FitEValues(scoreList(t, db, plain), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []ReportOptions{
		{Alignments: true},
		{EValues: true},
		{Alignments: true, EValues: true},
	} {
		res, err := cl.Search(q, rep)
		if err != nil {
			t.Fatalf("%+v: %v", rep, err)
		}
		if len(res.Hits) != defaultReportHits {
			t.Fatalf("%+v: %d hits, want %d", rep, len(res.Hits), defaultReportHits)
		}
		for _, h := range res.Hits {
			if rep.Alignments && h.Alignment == nil {
				t.Fatalf("%+v: hit %s missing alignment", rep, h.ID)
			}
			if rep.EValues && h.Significance == nil {
				t.Fatalf("%+v: hit %s missing significance", rep, h.ID)
			}
		}
		// The fit reads every subject's score, not the bounded hit list.
		if rep.EValues && res.Significance.String() != full.String() {
			t.Fatalf("%+v: significance %v, want the fit over all %d scores %v", rep, res.Significance, db.Len(), full)
		}
	}
}

// TestEveryHitContract pins how a caller reads every subject's score: Do
// with the zero ReportOptions returns one hit per database sequence, each
// index once, ordered by score descending and then by index, and the hit
// scores are the dispatcher's own score list — for a direct search, one
// under a request-scoped matrix and a translated one (each subject's best
// frame).
func TestEveryHitContract(t *testing.T) {
	db, queries := SyntheticSwissProt(0.0003, true)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.CloseNow()
	dna := "ATGAAATGGGTACTGGCTGCACGTAATGATTGCTGTCAGGAAGGCCATATTCTGTGGTATGTT"
	for name, req := range map[string]Request{
		"direct":     {Query: queries[1]},
		"matrix":     {Query: queries[1], Matrix: scaledBLOSUM62(t, 2)},
		"translated": {Query: NewDNASequence("d", dna), Translate: true},
	} {
		res, err := cl.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := scoreList(t, db, res)
		for i := 1; i < len(res.Hits); i++ {
			a, b := res.Hits[i-1], res.Hits[i]
			if a.Score < b.Score || a.Score == b.Score && a.Index > b.Index {
				t.Fatalf("%s: hit %d (%d, index %d) before hit %d (%d, index %d)", name, i-1, a.Score, a.Index, i, b.Score, b.Index)
			}
		}
		// The dispatcher's list, read under the job's matrix, over the
		// job's frames.
		jb := prepared(t, cl, req)
		dopt := cl.dopt
		if jb.matrix != nil {
			dopt.Search.Matrix = jb.matrix
		}
		frames := jb.fseqs
		if jb.frames == nil {
			frames = []*sequence.Sequence{jb.query.impl}
		}
		var want []int32
		for _, q := range frames {
			r, err := cl.engine().SearchContext(context.Background(), q, dopt, -1)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = r.Scores
				continue
			}
			for i, v := range r.Scores {
				want[i] = max(want[i], v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: hit scores differ from the dispatcher's score list", name)
		}
	}
}

// E-values over a 4-sequence database cannot be fitted; the sentinel
// error must surface through every entry point.
func TestSearchReportNoSignificance(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLA")
	if _, err := cl.Search(q, ReportOptions{EValues: true}); !errors.Is(err, ErrNoSignificance) {
		t.Fatalf("Search: err = %v, want ErrNoSignificance", err)
	}
	if _, err := cl.SearchScheduled(context.Background(), q, ReportOptions{EValues: true}); !errors.Is(err, ErrNoSignificance) {
		t.Fatalf("SearchScheduled: err = %v, want ErrNoSignificance", err)
	}
}

func TestReportOptionsValidation(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLA")
	if _, err := cl.Search(q, ReportOptions{TopK: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative TopK: err = %v, want ErrBadRequest", err)
	}
	if _, err := cl.Search(q, ReportOptions{}, ReportOptions{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("two ReportOptions: err = %v, want ErrBadRequest", err)
	}
}

// matchOnlyMatrix is NCBI matrix text scoring score for an exact match of
// M, K, W, V, L or A and -score for a mismatch between them; comment leads
// the text, so two texts can differ while their tables do not.
func matchOnlyMatrix(score int, comment string) string {
	const letters = "MKWVLA"
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n%s\n", comment, strings.Join(strings.Split(letters, ""), " "))
	for i := range letters {
		sb.WriteByte(letters[i])
		for j := range letters {
			s := -score
			if i == j {
				s = score
			}
			fmt.Fprintf(&sb, " %d", s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Requests that differ in anything that shapes a result must not alias in
// the serving scheduler's cache, in either direction: score-only and
// aligned reports, a translated query and a direct one with the same code
// bytes, two matrices, a matrix and the cluster default. Repeats of each —
// translated and custom-matrix ones included — are cache hits.
func TestReportCacheKeysNeverAlias(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0001, false)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLAARNDCCQEGHIL")
	ctx := context.Background()
	plain, err := cl.SearchScheduled(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Significance != nil || plain.Hits[0].Alignment != nil {
		t.Fatal("score-only result is decorated")
	}
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 4}
	aligned, err := cl.SearchScheduled(ctx, q, rep)
	if err != nil {
		t.Fatal(err)
	}
	if aligned.Significance == nil || len(aligned.Hits) != 4 || aligned.Hits[0].Alignment == nil {
		t.Fatalf("aligned result undecorated: %+v", aligned.Hits)
	}
	// Repeats hit the cache and keep their own shapes.
	plain2, err := cl.SearchScheduled(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if plain2.Hits[0].Alignment != nil || plain2.Significance != nil {
		t.Fatal("score-only repeat served the aligned result")
	}
	aligned2, err := cl.SearchScheduled(ctx, q, rep)
	if err != nil {
		t.Fatal(err)
	}
	if aligned2.Hits[0].Alignment == nil {
		t.Fatal("aligned repeat served the score-only result")
	}
	if hits := cl.Stats().Cache.Hits; hits < 2 {
		t.Fatalf("repeats were not cache hits (hits=%d)", hits)
	}

	// Each request is asked twice: the first must miss, the second hit
	// and answer the first's result.
	twice := func(name string, req, again Request) *Result {
		t.Helper()
		c0 := cl.Stats().Cache
		s0 := cl.Stats().Scheduler.CacheHits
		first, err := cl.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c1 := cl.Stats().Cache; c1.Hits != c0.Hits || c1.Misses != c0.Misses+1 {
			t.Fatalf("%s: first ask was not a cache miss (hits %d -> %d, misses %d -> %d)", name, c0.Hits, c1.Hits, c0.Misses, c1.Misses)
		}
		second, err := cl.Do(ctx, again)
		if err != nil {
			t.Fatalf("%s repeat: %v", name, err)
		}
		if h2 := cl.Stats().Cache.Hits; h2 != c0.Hits+1 || cl.Stats().Scheduler.CacheHits != s0+1 || second != first {
			t.Fatalf("%s: repeat was not served from the cache (hits %d -> %d)", name, c0.Hits, h2)
		}
		return first
	}

	// DNA's A, C, G, T and protein's A, R, N, D encode as the same codes.
	dna := NewDNASequence("d", strings.Repeat("ACGT", 12))
	twin := NewSequence("p", strings.Repeat("ARND", 12))
	for i, c := range dna.impl.Residues {
		if twin.impl.Residues[i] != c {
			t.Fatalf("residue %d: DNA code %d, protein code %d", i, c, twin.impl.Residues[i])
		}
	}
	translated := twice("translated", Request{Query: dna, Translate: true}, Request{Query: dna, Translate: true})
	direct := twice("direct twin", Request{Query: twin}, Request{Query: twin})
	if translated.Hits[0].Frame == 0 || direct.Hits[0].Frame != 0 {
		t.Fatalf("translated and direct results aliased: frames %+d and %+d", translated.Hits[0].Frame, direct.Hits[0].Frame)
	}

	// Two matrices, and a matrix beside the cluster default (the plain
	// search above): the repeat's text differs only in its comment, and
	// the key fingerprints the parsed table.
	nine := twice("matrix 9", Request{Query: q, Matrix: matchOnlyMatrix(9, "nine")}, Request{Query: q, Matrix: matchOnlyMatrix(9, "nine again")})
	five := twice("matrix 5", Request{Query: q, Matrix: matchOnlyMatrix(5, "five")}, Request{Query: q, Matrix: matchOnlyMatrix(5, "five")})
	if s9, s5, s := nine.Hits[0].Score, five.Hits[0].Score, plain.Hits[0].Score; s9 == s5 || s9 == s || s5 == s {
		t.Fatalf("matrix results aliased: top scores %d (match 9), %d (match 5), %d (default)", s9, s5, s)
	}
}

// The "blast" format renders a plain score-only result as a bare table, and an
// aligned one with the alignment blocks.
func TestWriteReportShapes(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLA")
	plain, err := cl.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFormat(&buf, "blast", q, db, plain, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "cigar") || strings.Contains(out, "e-value") || strings.Contains(out, "> ") {
		t.Fatalf("plain report carries report-phase columns:\n%s", out)
	}
	aligned, err := cl.Search(q, ReportOptions{Alignments: true, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFormat(&buf, "blast", q, db, aligned, 0); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "cigar") || !strings.Contains(out, "Query") || !strings.Contains(out, "Sbjct") {
		t.Fatalf("aligned report missing alignment blocks:\n%s", out)
	}
	if err := WriteFormat(&buf, "blast", Sequence{}, db, aligned, 0); err == nil {
		t.Error("zero-value query accepted")
	}
	if err := WriteFormat(&buf, "blast", q, nil, aligned, 0); err == nil {
		t.Error("nil database accepted")
	}
}

// A wrapped alignment row consumed entirely by a gap run used to print an
// inverted n..n-1 coordinate range; it must label both ends with the last
// consumed residue, BLAST-style, on whichever side the gap falls.
func TestReportWrappedGapRowCoordinates(t *testing.T) {
	gap60 := strings.Repeat("-", 60)

	// 120 deletion columns: the second wrapped row consumes no query.
	query := NewSequence("q", "WW")
	subject := NewSequence("s", "W"+strings.Repeat("A", 120)+"W")
	db, err := NewDatabase([]Sequence{subject})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	res.Hits = []Hit{{
		Index: 0, ID: "s", Score: 10,
		Alignment: &HitAlignment{
			QueryStart: 0, QueryEnd: 2, SubjectStart: 0, SubjectEnd: 122,
			CIGAR: "1M120D1M", Identities: 2, Columns: 122,
		},
	}}
	var buf bytes.Buffer
	if err := WriteFormat(&buf, "blast", query, db, res, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := "  Query      1 " + gap60 + " 1\n"; !strings.Contains(out, want) {
		t.Fatalf("query-less row not labelled with last-consumed coordinates; want %q in:\n%s", want, out)
	}
	if bad := "  Query      2 " + gap60 + " 1\n"; strings.Contains(out, bad) {
		t.Fatalf("inverted 2..1 query range still printed:\n%s", out)
	}
	// The rows around the gap keep their consumed-range labels.
	if want := "  Query      2 -W 2\n"; !strings.Contains(out, want) {
		t.Fatalf("final row mislabelled; want %q in:\n%s", want, out)
	}

	// The symmetric case: 120 insertion columns, a subject-less row.
	query2 := NewSequence("q", "W"+strings.Repeat("A", 120)+"W")
	subject2 := NewSequence("s", "WW")
	db2, err := NewDatabase([]Sequence{subject2})
	if err != nil {
		t.Fatal(err)
	}
	res2 := &Result{}
	res2.Hits = []Hit{{
		Index: 0, ID: "s", Score: 10,
		Alignment: &HitAlignment{
			QueryStart: 0, QueryEnd: 122, SubjectStart: 0, SubjectEnd: 2,
			CIGAR: "1M120I1M", Identities: 2, Columns: 122,
		},
	}}
	buf.Reset()
	if err := WriteFormat(&buf, "blast", query2, db2, res2, 60); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if want := "  Sbjct      1 " + gap60 + " 1\n"; !strings.Contains(out, want) {
		t.Fatalf("subject-less row not labelled with last-consumed coordinates:\n%s", out)
	}
	if bad := "  Sbjct      2 " + gap60 + " 1\n"; strings.Contains(out, bad) {
		t.Fatalf("inverted 2..1 subject range still printed:\n%s", out)
	}
}

// Library-side tracebacks are capped at MaxAlignHits on every entry point:
// a huge TopK with Alignments fails fast instead of re-aligning an
// arbitrary slice of the database.
func TestAlignmentCapEnforced(t *testing.T) {
	seqs := make([]Sequence, 100)
	for i := range seqs {
		seqs[i] = NewSequence(fmt.Sprintf("s%d", i), "MKWVLAARNDCCQEGHIL")
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLA")

	if _, err := cl.Search(q, ReportOptions{Alignments: true, TopK: 500000}); !errors.Is(err, ErrTooManyAlignments) {
		t.Fatalf("Search accepted a 500000-traceback report: %v", err)
	}
	if _, err := cl.DoBatch(context.Background(), requests([]Sequence{q}, ReportOptions{Alignments: true, TopK: MaxAlignHits + 1})); !errors.Is(err, ErrTooManyAlignments) {
		t.Fatalf("DoBatch accepted TopK %d: %v", MaxAlignHits+1, err)
	}
	if _, err := cl.SearchScheduled(context.Background(), q, ReportOptions{Alignments: true, TopK: MaxAlignHits + 1}); !errors.Is(err, ErrTooManyAlignments) {
		t.Fatalf("SearchScheduled accepted TopK %d: %v", MaxAlignHits+1, err)
	}

	// At the cap exactly, the search runs and decorates every hit.
	res, err := cl.Search(q, ReportOptions{Alignments: true, TopK: MaxAlignHits})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != MaxAlignHits || res.Hits[MaxAlignHits-1].Alignment == nil {
		t.Fatalf("cap-sized report: %d hits, last decorated=%v", len(res.Hits), res.Hits[len(res.Hits)-1].Alignment != nil)
	}

	// Score-only reporting is unaffected by the cap, and a K beyond the
	// database is satisfied with every sequence.
	res, err = cl.Search(q, ReportOptions{TopK: 500})
	if err != nil {
		t.Fatalf("score-only report rejected: %v", err)
	}
	if len(res.Hits) != db.Len() {
		t.Fatalf("over-database K returned %d hits, want %d", len(res.Hits), db.Len())
	}
}

// The report renderer and the tabular formats reject a bad CIGAR with the
// same texts: both read it through one run walker.
func TestCIGARErrors(t *testing.T) {
	for _, c := range []struct{ cigar, err string }{
		{"5", `malformed CIGAR "5"`},
		{"M", `malformed CIGAR "M"`},
		{"0M", `malformed CIGAR "0M"`},
		{"3M2X", `unknown CIGAR op 'X' in "3M2X"`},
	} {
		if _, _, err := cigarStats(c.cigar); err == nil || err.Error() != c.err {
			t.Errorf("cigarStats(%q) = %v, want %s", c.cigar, err, c.err)
		}
		a := &HitAlignment{CIGAR: c.cigar, QueryEnd: 5, SubjectEnd: 5}
		if _, _, _, err := expandCIGAR(a, "AAAAA", "AAAAA"); err == nil || err.Error() != c.err {
			t.Errorf("expandCIGAR(%q) = %v, want %s", c.cigar, err, c.err)
		}
	}
	a := &HitAlignment{CIGAR: "2M1D9M", QueryEnd: 5, SubjectEnd: 5}
	if _, _, _, err := expandCIGAR(a, "AAAAA", "AAAAA"); err == nil || err.Error() != `CIGAR "2M1D9M" overruns sequences` {
		t.Errorf("overrun: %v", err)
	}
	if m, g, err := cigarStats("2M1D3M2I1M"); m != 6 || g != 2 || err != nil {
		t.Errorf("cigarStats = %d, %d, %v; want 6, 2, nil", m, g, err)
	}
}
