package heterosw

import (
	"context"
	"strings"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
	"heterosw/internal/vec"
)

// scaledBLOSUM62 is the NCBI text of BLOSUM62 with every entry multiplied
// by c.
func scaledBLOSUM62(t *testing.T, c int) string {
	t.Helper()
	m := submat.BLOSUM62
	n := m.Size()
	cells := make([]int8, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			cells[a*n+b] = int8(c * m.Score(alphabet.Code(a), alphabet.Code(b)))
		}
	}
	sm, err := submat.New("scaled", m.Alphabet(), cells)
	if err != nil {
		t.Fatal(err)
	}
	return submat.Format(sm)
}

func reverseString(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// TestMetamorphicThroughDo checks the two oracle-free relations of
// internal/core's FuzzMetamorphic through the serving door, Cluster.Do, on
// every vec tier the host runs:
//
//   - reversing the query and every subject leaves every score unchanged;
//   - multiplying the matrix (a request-scoped Request.Matrix) and both
//     gap penalties by c multiplies every score by c.
//
// The W-run cases scale scores past the byte rail and past the 16-bit one,
// and the scaled cluster's ladder counters must show that escalation.
func TestMetamorphicThroughDo(t *testing.T) {
	const homolog = "MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPFDEHVK"
	subjects := []string{
		homolog,
		homolog[:12] + homolog[15:],         // a deletion: an F path
		homolog[:30] + "PPP" + homolog[30:], // an insertion: an E path
		"PAWHEAE",
		"CCQEGHIL",
		strings.Repeat("W", 40),
		strings.Repeat("W", 320),
	}
	cases := []struct {
		name               string
		query              string
		c                  int
		gapOpen, gapExtend int
		// escalates names the ladder step the scaled search must take.
		escalates string
	}{
		{"paper gaps x2", homolog[:40], 2, 10, 2, ""},
		{"linear gap x5", "HEAGAWGHEE", 5, 0, 8, ""},
		{"byte rail x11", strings.Repeat("W", 40), 11, 1, 1, "8to16"},
		{"16-bit rail x11", strings.Repeat("W", 320), 11, 1, 1, "16to32"},
	}
	seqs := func(rev bool) []Sequence {
		out := make([]Sequence, len(subjects))
		for i, s := range subjects {
			if rev {
				s = reverseString(s)
			}
			out[i] = NewSequence(string(rune('a'+i)), s)
		}
		return out
	}
	do := func(db []Sequence, gapOpen, gapExtend int, req Request) ([]int32, Stats) {
		t.Helper()
		d, err := NewDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(d, ClusterOptions{Options: Options{GapOpen: gapOpen, GapExtend: gapExtend, NoGapDefaults: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.CloseNow()
		res, err := cl.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return scoreList(t, d, res), cl.Stats()
	}
	for _, tr := range vec.Tiers() {
		func() {
			defer vec.CapTier(vec.CapTier(tr))
			for _, tc := range cases {
				q := NewSequence("q", tc.query)
				base, _ := do(seqs(false), tc.gapOpen, tc.gapExtend, Request{Query: q})
				rev, _ := do(seqs(true), tc.gapOpen, tc.gapExtend, Request{Query: NewSequence("q", reverseString(tc.query))})
				up, st := do(seqs(false), tc.c*tc.gapOpen, tc.c*tc.gapExtend,
					Request{Query: q, Matrix: scaledBLOSUM62(t, tc.c)})
				ladder := st.Ladder
				for i := range base {
					if rev[i] != base[i] {
						t.Errorf("[%v] %s: subject %d reversed scored %d, forward %d", tr, tc.name, i, rev[i], base[i])
					}
					if up[i] != int32(tc.c)*base[i] {
						t.Errorf("[%v] %s: subject %d scaled scored %d, want %d x %d", tr, tc.name, i, up[i], tc.c, base[i])
					}
				}
				switch tc.escalates {
				case "8to16":
					if ladder.Escalated8 == 0 {
						t.Errorf("[%v] %s: no lane escalated 8→16: %+v", tr, tc.name, ladder)
					}
				case "16to32":
					if ladder.Escalated16 == 0 {
						t.Errorf("[%v] %s: no lane escalated 16→32: %+v", tr, tc.name, ladder)
					}
				}
			}
		}()
	}
}
