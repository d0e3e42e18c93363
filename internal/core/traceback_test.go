package core

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/device"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

func tracebackDispatcher(t *testing.T, seqs int) (*Dispatcher, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	db := randDB(rng, seqs, 80, true)
	backends := []Backend{
		NewBackend("xeon#0", device.Xeon(), 0),
		NewBackend("phi#1", device.Phi(), 0),
	}
	d, err := NewDispatcher(db, backends)
	if err != nil {
		t.Fatal(err)
	}
	return d, rng
}

func TestAlignHitsMatchesOracle(t *testing.T) {
	d, rng := tracebackDispatcher(t, 40)
	query := randProtein(rng, 50)
	opt := DispatchOptions{Search: SearchOptions{
		Params: Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
		TopK:   8,
	}}
	res, err := d.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 8 {
		t.Fatalf("%d hits, want 8", len(res.Hits))
	}
	details, err := d.AlignHits(context.Background(), query, res.Hits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(details) != len(res.Hits) {
		t.Fatalf("%d details for %d hits", len(details), len(res.Hits))
	}
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	for i, det := range details {
		h := res.Hits[i]
		if det.SeqIndex != h.SeqIndex || det.Score != h.Score {
			t.Fatalf("detail %d is {seq %d, score %d}, hit is {seq %d, score %d}",
				i, det.SeqIndex, det.Score, h.SeqIndex, h.Score)
		}
		want := swalign.Align(query.Residues, d.DB().Seq(h.SeqIndex).Residues, sc)
		if det.CIGAR != want.CIGAR() || det.Identities != want.Identities ||
			det.QueryStart != want.AStart || det.QueryEnd != want.AEnd ||
			det.SubjectStart != want.BStart || det.SubjectEnd != want.BEnd ||
			det.Columns != len(want.Ops) {
			t.Fatalf("detail %d = %+v, oracle CIGAR %s [%d:%d]x[%d:%d]",
				i, det, want.CIGAR(), want.AStart, want.AEnd, want.BStart, want.BEnd)
		}
	}
	// The traceback phase is accounted: alignments land in the cumulative
	// totals, and only K were ever run.
	if _, tb, _ := d.Totals(); tb != int64(len(res.Hits)) {
		t.Fatalf("totals record %d tracebacks, want %d", tb, len(res.Hits))
	}
}

func TestAlignHitsEmptyAndErrors(t *testing.T) {
	d, rng := tracebackDispatcher(t, 35)
	query := randProtein(rng, 30)
	opt := DispatchOptions{Search: SearchOptions{
		Params: Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2},
	}}
	if det, err := d.AlignHits(context.Background(), query, nil, opt); err != nil || det != nil {
		t.Fatalf("empty hits: %v, %v", det, err)
	}
	if _, err := d.AlignHits(context.Background(), nil, nil, opt); err == nil {
		t.Fatal("nil query accepted")
	}
	// A hit referencing a sequence outside the database must fail, not
	// panic.
	if _, err := d.AlignHits(context.Background(), query, []Hit{{SeqIndex: 10000}}, opt); err == nil {
		t.Fatal("out-of-range hit accepted")
	}
	// A hit whose claimed score disagrees with the traceback is a kernel
	// bug; the executor must surface it.
	if _, err := d.AlignHits(context.Background(), query, []Hit{{SeqIndex: 0, Score: -1}}, opt); err == nil {
		t.Fatal("score mismatch not detected")
	}
	// A cancelled context aborts the phase.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := d.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AlignHits(ctx, query, res.Hits[:3], opt); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// oracleDetail is the AlignmentDetail the traceback reported when it ran
// swalign.Align once per hit.
func oracleDetail(seqIndex int, al *swalign.Alignment) AlignmentDetail {
	return AlignmentDetail{
		SeqIndex:     seqIndex,
		Score:        int32(al.Score),
		QueryStart:   al.AStart,
		QueryEnd:     al.AEnd,
		SubjectStart: al.BStart,
		SubjectEnd:   al.BEnd,
		CIGAR:        al.CIGAR(),
		Identities:   al.Identities,
		Columns:      len(al.Ops),
	}
}

// checkAlignHits traces back every sequence of db as a hit of query, in
// reverse database order, with checkpoints every blockCols columns (the
// default when 0), and fails t unless each detail equals the one built
// from swalign.Align, byte for byte. It returns the oracle alignments.
func checkAlignHits(t testing.TB, db *seqdb.Database, query *sequence.Sequence, opt DispatchOptions, blockCols int) []*swalign.Alignment {
	t.Helper()
	d, err := NewDispatcher(db, []Backend{NewBackend("host", device.Xeon(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	d.blockCols = blockCols
	sc := opt.Search.Scoring(db.Alphabet())
	n := db.Len()
	hits := make([]Hit, n)
	want := make([]AlignmentDetail, n)
	oracle := make([]*swalign.Alignment, n)
	for i := range hits {
		idx := n - 1 - i
		oracle[i] = swalign.Align(query.Residues, db.Seq(idx).Residues, sc)
		hits[i] = Hit{SeqIndex: idx, Score: int32(oracle[i].Score)}
		want[i] = oracleDetail(idx, oracle[i])
	}
	got, err := d.AlignHits(context.Background(), query, hits, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s q=%d r=%d blockCols %d, hit %d (subject %d, %d residues):\ngot  %+v\nwant %+v",
				sc.Matrix.Name(), sc.GapOpen, sc.GapExtend, blockCols, i, hits[i].SeqIndex,
				db.Seq(hits[i].SeqIndex).Len(), got[i], want[i])
		}
	}
	return oracle
}

// tracebackOpt is the dispatch options of a traceback under matrix m
// (BLOSUM62 when nil) and gap penalties q and r.
func tracebackOpt(m *submat.Matrix, q, r int) DispatchOptions {
	return DispatchOptions{Search: SearchOptions{
		Params: Params{Variant: IntrinsicSP, GapOpen: q, GapExtend: r},
		Matrix: m,
	}}
}

// codesOf draws n residues from the first k letters of alpha.
func codesOf(rng *rand.Rand, n, k int) []alphabet.Code {
	out := make([]alphabet.Code, n)
	for i := range out {
		out[i] = alphabet.Code(rng.Intn(k))
	}
	return out
}

// TestAlignHitsEqualsAlign pins the lane pass and the block walk to
// swalign.Align, one call per hit, across the cases where they could part:
// ties, empty alignments, groups of mixed lengths, several groups, the
// int16 rail, DNA, other gap penalties, and checkpoints a few columns apart
// so the walks cross many blocks.
func TestAlignHitsEqualsAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	seq := func(alpha *alphabet.Alphabet, codes []alphabet.Code) *sequence.Sequence {
		return fuzzSequence("s", codes, alpha)
	}
	protein := func(qLen int, lens []int, k int) (*sequence.Sequence, *seqdb.Database) {
		seqs := make([]*sequence.Sequence, len(lens))
		for i, n := range lens {
			seqs[i] = seq(alphabet.Protein, codesOf(rng, n, k))
		}
		return seq(alphabet.Protein, codesOf(rng, qLen, k)), seqdb.New(seqs, false)
	}
	// homologs are mutated copies of a query with indels, and one copy
	// with a 9-residue insertion: a horizontal gap that spans block edges
	// when blocks are narrower than it.
	homologs := func(alpha *alphabet.Alphabet, k, qLen, n int) (*sequence.Sequence, *seqdb.Database) {
		q := codesOf(rng, qLen, k)
		seqs := []*sequence.Sequence{seq(alpha, append(append(slices.Clone(q[:qLen/2]), codesOf(rng, 9, k)...), q[qLen/2:]...))}
		for len(seqs) < n {
			var s []alphabet.Code
			for _, c := range q {
				switch x := rng.Float64(); {
				case x < 0.1:
					s = append(s, alphabet.Code(rng.Intn(k)))
				case x < 0.15:
				case x < 0.2:
					s = append(s, codesOf(rng, rng.Intn(4)+1, k)...)
					s = append(s, c)
				default:
					s = append(s, c)
				}
			}
			seqs = append(seqs, seq(alpha, s))
		}
		return seq(alpha, q), seqdb.New(seqs, false)
	}
	lens := func(n, lo, hi int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + rng.Intn(hi-lo+1)
		}
		return out
	}
	w := bytes.Repeat([]byte("W"), 3000) // self-score 33,000, over the int16 rail
	cases := []struct {
		name      string
		build     func() (*sequence.Sequence, *seqdb.Database)
		opt       DispatchOptions
		blockCols []int
	}{
		{"repeats-two-letters", func() (*sequence.Sequence, *seqdb.Database) { return protein(60, lens(16, 1, 120), 2) },
			tracebackOpt(nil, 10, 2), []int{0, 1, 3}},
		{"repeats-periodic", func() (*sequence.Sequence, *seqdb.Database) {
			return sequence.FromString("q", strings.Repeat("WAC", 20)), seqdb.New([]*sequence.Sequence{
				sequence.FromString("a", strings.Repeat("WAC", 31)),
				sequence.FromString("b", strings.Repeat("CAW", 7)),
				sequence.FromString("c", strings.Repeat("WWAACC", 9)),
			}, false)
		}, tracebackOpt(nil, 0, 1), []int{0, 2, 5}},
		{"zero-score", func() (*sequence.Sequence, *seqdb.Database) {
			return sequence.FromString("q", "WWWWCCCC"), seqdb.New([]*sequence.Sequence{
				sequence.FromString("g", "GGGGGG"),
				sequence.FromString("hit", "AWWWWCCCCA"),
				sequence.FromString("p", "P"),
			}, false)
		}, tracebackOpt(nil, 10, 2), []int{0, 1}},
		{"mixed-lengths", func() (*sequence.Sequence, *seqdb.Database) {
			return protein(75, []int{1, 5, 900, 64, 65, 128, 129, 3, 400, 75}, 20)
		}, tracebackOpt(nil, 10, 2), []int{0, 7}},
		{"three-groups", func() (*sequence.Sequence, *seqdb.Database) { return protein(40, lens(40, 1, 300), 20) },
			tracebackOpt(nil, 11, 1), []int{0, 4}},
		{"homologs", func() (*sequence.Sequence, *seqdb.Database) { return homologs(alphabet.Protein, 20, 80, 20) },
			tracebackOpt(submat.BLOSUM50, 10, 2), []int{0, 1, 2, 3, 8}},
		{"rail-self-hit", func() (*sequence.Sequence, *seqdb.Database) {
			return sequence.New("q", w), seqdb.New([]*sequence.Sequence{
				sequence.New("self", w),
				sequence.FromString("short", "MKWVLA"),
			}, false)
		}, tracebackOpt(nil, 10, 2), []int{0}},
		{"dna-nuc", func() (*sequence.Sequence, *seqdb.Database) { return homologs(alphabet.DNA, 4, 120, 18) },
			tracebackOpt(submat.NUC, 5, 2), []int{0, 3, 64}},
		{"gaps-120-10", func() (*sequence.Sequence, *seqdb.Database) { return homologs(alphabet.Protein, 20, 90, 6) },
			tracebackOpt(submat.PAM250, 120, 10), []int{0, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query, db := tc.build()
			for _, bc := range tc.blockCols {
				oracle := checkAlignHits(t, db, query, tc.opt, bc)
				if tc.name == "rail-self-hit" && oracle[len(oracle)-1].Score <= vec.MaxI16 {
					t.Fatalf("self-hit scores %d, not over the int16 rail", oracle[len(oracle)-1].Score)
				}
				if tc.name == "homologs" && bc > 1 && !hasGapOver(oracle, bc) {
					t.Fatalf("no alignment has a row gap longer than %d columns to cross a block edge", bc)
				}
			}
		})
	}
}

// hasGapOver reports whether some alignment has a run of more than n gaps
// in the query, which must cross an edge of n-column blocks.
func hasGapOver(als []*swalign.Alignment, n int) bool {
	for _, al := range als {
		run := 0
		for _, op := range al.Ops {
			if op != swalign.OpDeleteB {
				run = 0
				continue
			}
			if run++; run > n {
				return true
			}
		}
	}
	return false
}

// TestAlignHitsClaimedScores pins the check on the claimed score: one
// point above or below the maximum fails with the disagreement, beside a
// hit claimed right, and so does a wrong claim on a lane at the int16 rail,
// which the full alignment checks.
func TestAlignHitsClaimedScores(t *testing.T) {
	w := bytes.Repeat([]byte("W"), 3000)
	db := seqdb.New([]*sequence.Sequence{
		sequence.FromString("a", "MKWVLAW"), sequence.FromString("b", "KWVLAHHW"), sequence.New("self", w),
	}, false)
	d, err := NewDispatcher(db, []Backend{NewBackend("host", device.Xeon(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	opt := tracebackOpt(nil, 10, 2)
	sc := opt.Search.Scoring(db.Alphabet())
	check := func(query *sequence.Sequence, right, wrong int, delta int32) {
		t.Helper()
		truth := int32(swalign.Score(query.Residues, db.Seq(wrong).Residues, sc))
		hits := []Hit{
			{SeqIndex: right, Score: int32(swalign.Score(query.Residues, db.Seq(right).Residues, sc))},
			{SeqIndex: wrong, Score: truth + delta},
		}
		_, err := d.AlignHits(context.Background(), query, hits, opt)
		if err == nil || !strings.Contains(err.Error(), "disagrees with kernel score") {
			t.Fatalf("subject %d claimed %d against %d: %v, want the disagreement", wrong, truth+delta, truth, err)
		}
	}
	short := sequence.FromString("q", "MKWVLAHHWWKY")
	check(short, 0, 1, -1)
	check(short, 0, 1, +1)
	check(sequence.New("q", w), 0, 2, -1)
}

// FuzzAlignHits compares AlignHits with swalign.Align on arbitrary queries
// and databases: every sequence is a hit, claims are the oracle's scores,
// and the checkpoint spacing comes from the input, down to one column.
// matrix picks BLOSUM62, BLOSUM50, PAM250 or NUC (over DNA); the gap
// penalties are q mod 128 and r mod 16.
func FuzzAlignHits(f *testing.F) {
	f.Add([]byte("MKWVLAHHWWKY"), []byte("MKWVLWWKY\xffWAW\xffCC"), uint8(0), uint8(10), uint8(2), uint8(0))
	f.Add([]byte("AAAAAAAA"), []byte("AAAA\xffAAAAAAAAAAAA\xffA"), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE\xffHEAGAWGHEE"), uint8(1), uint8(0), uint8(8), uint8(2))
	f.Add([]byte("ACGTACGTTTACGT"), []byte("ACGTTTTTACGTTTACGT\xffGGGG"), uint8(3), uint8(5), uint8(2), uint8(3))
	f.Add([]byte{}, []byte("ARND"), uint8(0), uint8(10), uint8(2), uint8(0))
	f.Add([]byte("WWWW"), bytes.Repeat([]byte("W\xff"), 20), uint8(2), uint8(3), uint8(1), uint8(2))
	matrices := []*submat.Matrix{submat.BLOSUM62, submat.BLOSUM50, submat.PAM250, submat.NUC}
	f.Fuzz(func(t *testing.T, q, raw []byte, matrix, gapOpen, gapExtend, blockCols uint8) {
		if len(q) > 300 || len(raw) > 3000 {
			return
		}
		m := matrices[int(matrix)%len(matrices)]
		alpha := m.Alphabet()
		db := fuzzDatabase(raw, false, alpha)
		if db == nil {
			return
		}
		query := fuzzSequence("q", fuzzResiduesAlpha(q, len(q), alpha), alpha)
		checkAlignHits(t, db, query, tracebackOpt(m, int(gapOpen%128), int(gapExtend%16)), int(blockCols%70))
	})
}

// BenchmarkAlignHits times the traceback phase of one serving request on
// one worker: a 75-residue query's top ten hits, eight unrelated subjects
// of 200-800 residues and two mutated copies of the query inside subjects
// of the same lengths, so two paths are long. It reports µs per query and
// the useful cells of the ten pairs per second.
func BenchmarkAlignHits(b *testing.B) {
	rng := rand.New(rand.NewSource(75))
	query := randProtein(rng, 75)
	seqs := make([]*sequence.Sequence, 10)
	var cells int64
	for i := range seqs {
		n := 200 + rng.Intn(601)
		s := randProtein(rng, n).Residues
		if i < 2 {
			at := rng.Intn(n - 75)
			copy(s[at:], query.Residues)
			for k := 0; k < 8; k++ {
				s[at+rng.Intn(75)] = alphabet.Code(rng.Intn(20))
			}
		}
		seqs[i] = &sequence.Sequence{ID: "s", Residues: s}
		cells += int64(query.Len()) * int64(n)
	}
	db := seqdb.New(seqs, false)
	d, err := NewDispatcher(db, []Backend{NewBackend("host", device.Xeon(), 0)})
	if err != nil {
		b.Fatal(err)
	}
	opt := tracebackOpt(nil, 10, 2)
	opt.Search.Workers = 1
	sc := opt.Search.Scoring(db.Alphabet())
	hits := make([]Hit, db.Len())
	for i := range hits {
		hits[i] = Hit{SeqIndex: i, Score: int32(swalign.Score(query.Residues, db.Seq(i).Residues, sc))}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AlignHits(ctx, query, hits, opt); err != nil {
			b.Fatal(err)
		}
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(sec*1e6/float64(b.N), "us/query")
	b.ReportMetric(float64(cells)*float64(b.N)/sec/1e6, "Mcells/s")
}
