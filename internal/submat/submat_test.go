package submat

import (
	"strings"
	"testing"
	"testing/quick"

	"heterosw/internal/alphabet"
)

func enc(t *testing.T, b byte) alphabet.Code {
	t.Helper()
	c, ok := alphabet.Protein.Encode(b)
	if !ok {
		t.Fatalf("cannot encode %q", b)
	}
	return c
}

// BLOSUM62 spot checks against the canonical NCBI table.
func TestBLOSUM62KnownValues(t *testing.T) {
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4}, {'R', 'R', 5}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'C', -2}, {'I', 'L', 2}, {'E', 'D', 2},
		{'Y', 'F', 3}, {'X', 'X', -1}, {'*', '*', 1}, {'A', '*', -4},
		{'B', 'D', 4}, {'Z', 'E', 4}, {'P', 'P', 7}, {'G', 'G', 6},
	}
	for _, c := range cases {
		got := BLOSUM62.Score(enc(t, c.a), enc(t, c.b))
		if got != c.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBuiltinsSymmetric(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := m.Alphabet()
		for i := alphabet.Code(0); int(i) < m.Size(); i++ {
			for j := alphabet.Code(0); int(j) < m.Size(); j++ {
				if m.Score(i, j) != m.Score(j, i) {
					t.Fatalf("%s asymmetric at (%c,%c)", name, a.Decode(i), a.Decode(j))
				}
			}
		}
	}
}

func TestBuiltinsDiagonalPositive(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		a := m.Alphabet()
		for c := alphabet.Code(0); int(c) < m.Size(); c++ {
			if !a.IsStandard(c) {
				continue
			}
			if m.Score(c, c) <= 0 {
				t.Errorf("%s: self score of %c is %d, want > 0", name, a.Decode(c), m.Score(c, c))
			}
		}
	}
}

func TestMaxMin(t *testing.T) {
	if BLOSUM62.Max() != 11 { // W-W
		t.Errorf("BLOSUM62.Max() = %d, want 11", BLOSUM62.Max())
	}
	if BLOSUM62.Min() != -4 {
		t.Errorf("BLOSUM62.Min() = %d, want -4", BLOSUM62.Min())
	}
	if PAM250.Max() != 17 { // W-W
		t.Errorf("PAM250.Max() = %d, want 17", PAM250.Max())
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("BLOSUM999"); err == nil {
		t.Fatal("ByName(BLOSUM999) succeeded, want error")
	}
}

func TestRowMatchesScore(t *testing.T) {
	for a := alphabet.Code(0); int(a) < alphabet.Size; a++ {
		row := BLOSUM62.Row(a)
		for b := alphabet.Code(0); int(b) < alphabet.Size; b++ {
			if int(row[b]) != BLOSUM62.Score(a, b) {
				t.Fatalf("Row(%c)[%c] = %d != Score %d",
					alphabet.Protein.Decode(a), alphabet.Protein.Decode(b), row[b], BLOSUM62.Score(a, b))
			}
		}
	}
}

// Round trip: Format then Parse must reproduce every built-in matrix.
func TestFormatParseRoundTrip(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		text := Format(m)
		back, err := Parse(name, strings.NewReader(text), m.Alphabet())
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		a := m.Alphabet()
		for i := alphabet.Code(0); int(i) < m.Size(); i++ {
			for j := alphabet.Code(0); int(j) < m.Size(); j++ {
				if m.Score(i, j) != back.Score(i, j) {
					t.Fatalf("%s: round trip differs at (%c,%c)", name, a.Decode(i), a.Decode(j))
				}
			}
		}
	}
}

// A fingerprint names the score table, not the text or the name it came
// from: a reparsed built-in matches the original, and different tables —
// BLOSUM62 and BLOSUM50, or one score apart — never match.
func TestFingerprint(t *testing.T) {
	back, err := Parse("custom", strings.NewReader("# reformatted\n"+Format(BLOSUM62)), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != BLOSUM62.Fingerprint() {
		t.Fatal("reparsed BLOSUM62 has a different fingerprint")
	}
	a, err := Parse("a", strings.NewReader("A R\nA 4 -3\nR -3 5\n"), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("a", strings.NewReader("A R\nA 4 -3\nR -3 6\n"), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if BLOSUM62.Fingerprint() == BLOSUM50.Fingerprint() || a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different score tables share a fingerprint")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"comment only": "# nothing here\n",
		"bad header":   "AB C\nA 1 2\n",
		"short row":    "A R\nA 1\n",
		"bad score":    "A R\nA x y\n",
		"bad residue":  "A R\n1 0 0\n",
		"overflow":     "A R\nA 1000 0\nR 0 1000\n",
	}
	for name, text := range cases {
		if _, err := Parse("t", strings.NewReader(text), alphabet.Protein); err == nil {
			t.Errorf("Parse(%s) succeeded, want error", name)
		}
	}
}

func TestParsePartialMatrix(t *testing.T) {
	// A 2-residue matrix: unseen pairs must take the minimum score (-3).
	text := "   A  R\nA  4 -3\nR -3  5\n"
	m, err := Parse("mini", strings.NewReader(text), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, r, w := enc(t, 'A'), enc(t, 'R'), enc(t, 'W')
	if m.Score(a, a) != 4 || m.Score(r, r) != 5 || m.Score(a, r) != -3 {
		t.Fatalf("parsed scores wrong: %d %d %d", m.Score(a, a), m.Score(r, r), m.Score(a, r))
	}
	if m.Score(w, w) != -3 || m.Score(a, w) != -3 {
		t.Fatalf("unseen pairs = %d/%d, want min -3", m.Score(w, w), m.Score(a, w))
	}
}

func TestNewRejectsAsymmetric(t *testing.T) {
	s := make([]int8, alphabet.Size*alphabet.Size)
	s[0*alphabet.Size+1] = 3
	s[1*alphabet.Size+0] = -3
	if _, err := New("bad", alphabet.Protein, s); err == nil {
		t.Fatal("New accepted asymmetric matrix")
	}
}

// Property: for random residue pairs the matrix is symmetric and bounded by
// [Min, Max].
func TestScoreBoundsProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		a := alphabet.Code(x % alphabet.Size)
		b := alphabet.Code(y % alphabet.Size)
		s := BLOSUM62.Score(a, b)
		return s == BLOSUM62.Score(b, a) && s >= BLOSUM62.Min() && s <= BLOSUM62.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
