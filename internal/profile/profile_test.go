package profile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
)

func randCodes(rng *rand.Rand, n int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = alphabet.Code(rng.Intn(alphabet.Size))
	}
	return s
}

func TestQueryProfileMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := randCodes(rng, 200)
	q := NewQuery(seq, submat.BLOSUM62)
	if q.Len() != 200 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i, r := range seq {
		row := q.QPRow8(i)
		if len(row) != TableWidth {
			t.Fatalf("row width %d", len(row))
		}
		for e := 0; e < alphabet.Size; e++ {
			if want := submat.BLOSUM62.Score(r, alphabet.Code(e)); int(row[e]) != want {
				t.Fatalf("QP8[%d][%d] = %d, want %d", i, e, row[e], want)
			}
		}
		if row[PadIndex] != PadScore8 {
			t.Fatalf("QP8 pad column = %d, want %d", row[PadIndex], PadScore8)
		}
	}
}

func TestExtTablePadding(t *testing.T) {
	q := NewQuery(randCodes(rand.New(rand.NewSource(12)), 5), submat.BLOSUM62)
	for e := 0; e < TableWidth; e++ {
		if q.ExtRow(e)[PadIndex] != PadScore {
			t.Fatalf("Ext[%d][pad] = %d", e, q.ExtRow(e)[PadIndex])
		}
		if q.ExtRow(PadIndex)[e] != PadScore {
			t.Fatalf("Ext[pad][%d] = %d", e, q.ExtRow(PadIndex)[e])
		}
	}
}

func TestExtMatchesMatrix(t *testing.T) {
	q := NewQuery(randCodes(rand.New(rand.NewSource(13)), 3), submat.PAM250)
	for e := 0; e < alphabet.Size; e++ {
		for d := 0; d < alphabet.Size; d++ {
			if int(q.ExtRow(e)[d]) != submat.PAM250.Score(alphabet.Code(e), alphabet.Code(d)) {
				t.Fatalf("Ext[%d][%d] mismatch", e, d)
			}
		}
	}
	if q.MaxScore != submat.PAM250.Max() {
		t.Fatalf("MaxScore = %d", q.MaxScore)
	}
}

func TestScoreRowsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := NewQuery(randCodes(rng, 10), submat.BLOSUM62)
	const L = 16
	sr := NewScoreRows(L)
	if sr.Lanes() != L {
		t.Fatalf("Lanes = %d", sr.Lanes())
	}
	residues := make([]uint8, L)
	for l := range residues {
		if l%5 == 4 {
			residues[l] = PadIndex
		} else {
			residues[l] = uint8(rng.Intn(alphabet.Size))
		}
	}
	sr.Build(q, residues)
	for e := 0; e < TableWidth; e++ {
		row := sr.Raw()[e*L : (e+1)*L]
		for l := 0; l < L; l++ {
			want := q.ExtRow(e)[residues[l]]
			if row[l] != want {
				t.Fatalf("SP[e=%d][lane=%d] = %d, want %d", e, l, row[l], want)
			}
		}
	}
}

// Property: score rows agree with the matrix for any residue assignment,
// and every pad lane scores PadScore for every query residue.
func TestScoreRowsProperty(t *testing.T) {
	q := NewQuery(randCodes(rand.New(rand.NewSource(15)), 4), submat.BLOSUM50)
	sr := NewScoreRows(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		residues := make([]uint8, 8)
		for l := range residues {
			residues[l] = uint8(rng.Intn(TableWidth))
		}
		sr.Build(q, residues)
		for e := 0; e < alphabet.Size; e++ {
			for l := 0; l < 8; l++ {
				d := residues[l]
				var want int16
				if d == PadIndex {
					want = PadScore
				} else {
					want = int16(submat.BLOSUM50.Score(alphabet.Code(e), alphabet.Code(d)))
				}
				if sr.Raw()[e*8+l] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPadScoreDominatesMatrix(t *testing.T) {
	// The pad score must be far below any real score so padded columns
	// strictly decay. Guard the constant against matrix changes.
	for _, name := range submat.Names() {
		m, _ := submat.ByName(name)
		if PadScore >= m.Min() {
			t.Fatalf("PadScore %d not below %s minimum %d", PadScore, name, m.Min())
		}
	}
}
