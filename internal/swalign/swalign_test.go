package swalign

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
)

var testScoring = Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}

// naiveScore evaluates Eqs. 1-6 of the paper literally: C and F are
// computed as explicit maxima over all gap lengths k. It is O(M*N*(M+N)),
// usable only on small inputs, and is the independent oracle for both the
// linear-space Score and the Gotoh recurrences.
func naiveScore(a, b []alphabet.Code, sc Scoring) int {
	m, n := len(a), len(b)
	H := make([][]int, m+1)
	for i := range H {
		H[i] = make([]int, n+1)
	}
	g := func(x int) int { return sc.GapOpen + sc.GapExtend*x }
	best := 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			h := 0
			if v := H[i-1][j-1] + sc.Matrix.Score(a[i-1], b[j-1]); v > h {
				h = v
			}
			for k := 1; k <= i; k++ { // C_ij, Eq. 3
				if v := H[i-k][j] - g(k); v > h {
					h = v
				}
			}
			for l := 1; l <= j; l++ { // F_ij, Eq. 4
				if v := H[i][j-l] - g(l); v > h {
					h = v
				}
			}
			H[i][j] = h
			if h > best {
				best = h
			}
		}
	}
	return best
}

func randSeq(rng *rand.Rand, n int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = alphabet.Code(rng.Intn(20)) // standard residues
	}
	return s
}

func TestScoreMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		a := randSeq(rng, rng.Intn(40)+1)
		b := randSeq(rng, rng.Intn(40)+1)
		want := naiveScore(a, b, testScoring)
		got := Score(a, b, testScoring)
		if got != want {
			t.Fatalf("trial %d: Score=%d naive=%d\na=%s\nb=%s", trial, got, want,
				alphabet.Protein.DecodeAll(a), alphabet.Protein.DecodeAll(b))
		}
	}
}

func TestScoreMatchesNaiveOtherPenalties(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	scorings := []Scoring{
		{Matrix: submat.BLOSUM62, GapOpen: 0, GapExtend: 1},
		{Matrix: submat.BLOSUM62, GapOpen: 5, GapExtend: 0},
		{Matrix: submat.BLOSUM50, GapOpen: 12, GapExtend: 2},
		{Matrix: submat.PAM250, GapOpen: 14, GapExtend: 2},
	}
	for _, sc := range scorings {
		for trial := 0; trial < 60; trial++ {
			a := randSeq(rng, rng.Intn(30)+1)
			b := randSeq(rng, rng.Intn(30)+1)
			want := naiveScore(a, b, sc)
			got := Score(a, b, sc)
			if got != want {
				t.Fatalf("%s q=%d r=%d: Score=%d naive=%d\na=%s\nb=%s",
					sc.Matrix.Name(), sc.GapOpen, sc.GapExtend, got, want,
					alphabet.Protein.DecodeAll(a), alphabet.Protein.DecodeAll(b))
			}
		}
	}
}

func TestScoreEdgeCases(t *testing.T) {
	a := randSeq(rand.New(rand.NewSource(1)), 10)
	if got := Score(nil, a, testScoring); got != 0 {
		t.Errorf("Score(nil, a) = %d", got)
	}
	if got := Score(a, nil, testScoring); got != 0 {
		t.Errorf("Score(a, nil) = %d", got)
	}
	// Single residues: identical residues score the diagonal value.
	w := []alphabet.Code{alphabet.Protein.MustEncode('W')}
	if got := Score(w, w, testScoring); got != 11 {
		t.Errorf("Score(W,W) = %d, want 11", got)
	}
	// All-mismatch input with strongly negative scores gives 0.
	c := []alphabet.Code{alphabet.Protein.MustEncode('C'), alphabet.Protein.MustEncode('C')}
	g := []alphabet.Code{alphabet.Protein.MustEncode('G'), alphabet.Protein.MustEncode('G')}
	if got := Score(c, g, testScoring); got != 0 {
		t.Errorf("Score(CC,GG) = %d, want 0", got)
	}
}

func TestScoreSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	f := func(seedA, seedB uint16) bool {
		a := randSeq(rng, int(seedA%50)+1)
		b := randSeq(rng, int(seedB%50)+1)
		return Score(a, b, testScoring) == Score(b, a, testScoring)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSelfAlignmentAtLeastDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 50; trial++ {
		a := randSeq(rng, rng.Intn(80)+1)
		diagSum := 0
		for _, c := range a {
			diagSum += testScoring.Matrix.Score(c, c)
		}
		if got := Score(a, a, testScoring); got < diagSum {
			t.Fatalf("self score %d < diagonal sum %d", got, diagSum)
		}
	}
}

// scoreFromOps replays an alignment path and recomputes its score with the
// affine gap model, validating the backtracking output independently.
func scoreFromOps(t *testing.T, al *Alignment, a, b []alphabet.Code, sc Scoring) int {
	t.Helper()
	i, j := al.AStart, al.BStart
	total := 0
	idx := 0
	for idx < len(al.Ops) {
		op := al.Ops[idx]
		run := 0
		for idx < len(al.Ops) && al.Ops[idx] == op {
			run++
			idx++
		}
		switch op {
		case OpMatch:
			for k := 0; k < run; k++ {
				total += sc.Matrix.Score(a[i], b[j])
				i++
				j++
			}
		case OpInsertA:
			total -= sc.GapOpen + sc.GapExtend*run
			i += run
		case OpDeleteB:
			total -= sc.GapOpen + sc.GapExtend*run
			j += run
		}
	}
	if i != al.AEnd || j != al.BEnd {
		t.Fatalf("ops end at (%d,%d), header says (%d,%d)", i, j, al.AEnd, al.BEnd)
	}
	return total
}

func TestAlignMatchesScoreAndReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		a := randSeq(rng, rng.Intn(60)+1)
		b := randSeq(rng, rng.Intn(60)+1)
		al := Align(a, b, testScoring)
		want := Score(a, b, testScoring)
		if al.Score != want {
			t.Fatalf("Align score %d != Score %d", al.Score, want)
		}
		if al.Score == 0 {
			continue
		}
		if got := scoreFromOps(t, al, a, b, testScoring); got != al.Score {
			t.Fatalf("replayed score %d != %d (cigar %s)", got, al.Score, al.CIGAR())
		}
	}
}

func TestAlignKnownExample(t *testing.T) {
	// Identical sequences align end to end along the diagonal.
	a := alphabet.Protein.EncodeAll([]byte("MKWVLA"))
	al := Align(a, a, testScoring)
	wantScore := 0
	for _, c := range a {
		wantScore += testScoring.Matrix.Score(c, c)
	}
	if al.Score != wantScore {
		t.Fatalf("self align score %d, want %d", al.Score, wantScore)
	}
	if al.Identities != len(a) {
		t.Fatalf("identities %d, want %d", al.Identities, len(a))
	}
	if al.AStart != 0 || al.AEnd != len(a) || al.BStart != 0 || al.BEnd != len(a) {
		t.Fatalf("bad coordinates %+v", al)
	}
	if al.CIGAR() != "6M" {
		t.Fatalf("CIGAR = %q, want 6M", al.CIGAR())
	}
}

func TestAlignGapExample(t *testing.T) {
	// b is a with a 2-residue deletion; high-identity flanks force a gap.
	a := alphabet.Protein.EncodeAll([]byte("MKWVLAHHWWKY"))
	b := append(append([]alphabet.Code{}, a[:5]...), a[7:]...)
	al := Align(a, b, testScoring)
	if al.Score != Score(a, b, testScoring) {
		t.Fatalf("score mismatch")
	}
	sawGap := false
	for _, op := range al.Ops {
		if op == OpInsertA {
			sawGap = true
		}
	}
	if !sawGap {
		t.Fatalf("expected an insertion gap, got CIGAR %s", al.CIGAR())
	}
}

func TestAlignEmpty(t *testing.T) {
	al := Align(nil, nil, testScoring)
	if al.Score != 0 || len(al.Ops) != 0 {
		t.Fatalf("empty align: %+v", al)
	}
	if al.CIGAR() != "*" {
		t.Fatalf("CIGAR = %q", al.CIGAR())
	}
	if al.Format(0) != "(no alignment)" {
		t.Fatalf("Format = %q", al.Format(0))
	}
}

func TestFormatContainsRows(t *testing.T) {
	a := alphabet.Protein.EncodeAll([]byte("MKWVLA"))
	al := Align(a, a, testScoring)
	out := al.Format(4)
	if len(out) == 0 || out[0] != 's' {
		t.Fatalf("Format output unexpected: %q", out)
	}
}

func TestValidate(t *testing.T) {
	if err := (Scoring{}).Validate(); err == nil {
		t.Error("nil matrix accepted")
	}
	if err := (Scoring{Matrix: submat.BLOSUM62, GapOpen: -1}).Validate(); err == nil {
		t.Error("negative gap open accepted")
	}
	if err := testScoring.Validate(); err != nil {
		t.Errorf("valid scoring rejected: %v", err)
	}
}

func TestCells(t *testing.T) {
	a := make([]alphabet.Code, 123)
	b := make([]alphabet.Code, 77)
	if got := Cells(a, b); got != 123*77 {
		t.Fatalf("Cells = %d", got)
	}
}
