package swalign

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/submat"
)

// alignFullMatrix is the three-matrix traceback Align ran before it moved to
// linear space: H, E and F as (m+1)×(n+1) int32 matrices, a row-major scan
// for the first maximal cell, and a backtracking state machine over the
// matrices. It is kept verbatim as the reference that the direction-byte
// Align must reproduce exactly, ties included.
func alignFullMatrix(a, b []alphabet.Code, sc Scoring) *Alignment {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	out := &Alignment{a: a, b: b, alpha: sc.Matrix.Alphabet()}
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return out
	}
	qr := sc.GapOpen + sc.GapExtend
	r := sc.GapExtend

	// Full matrices, row-major, (m+1) x (n+1). Initialisation per Eq. 1.
	stride := n + 1
	H := make([]int32, (m+1)*stride)
	E := make([]int32, (m+1)*stride)
	F := make([]int32, (m+1)*stride)
	for j := 0; j <= n; j++ {
		E[j], F[j] = negInf, negInf
	}
	bestI, bestJ, best := 0, 0, int32(0)
	for i := 1; i <= m; i++ {
		row := sc.Matrix.Row(a[i-1])
		base := i * stride
		prev := base - stride
		E[base], F[base] = negInf, negInf
		for j := 1; j <= n; j++ {
			e := E[base+j-1] - int32(r)
			if v := H[base+j-1] - int32(qr); v > e {
				e = v
			}
			E[base+j] = e
			f := F[prev+j] - int32(r)
			if v := H[prev+j] - int32(qr); v > f {
				f = v
			}
			F[base+j] = f
			h := H[prev+j-1] + int32(row[b[j-1]])
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			H[base+j] = h
			if h > best {
				best, bestI, bestJ = h, i, j
			}
		}
	}
	out.Score = int(best)
	if best == 0 {
		return out
	}

	// Backtracking state machine over (H, E, F).
	type state byte
	const (
		inH state = iota
		inE
		inF
	)
	var ops []Op
	i, j, st := bestI, bestJ, inH
	for {
		idx := i*stride + j
		switch st {
		case inH:
			h := H[idx]
			if h == 0 {
				goto done
			}
			switch {
			case i > 0 && j > 0 && h == H[idx-stride-1]+int32(sc.Matrix.Score(a[i-1], b[j-1])):
				ops = append(ops, OpMatch)
				if a[i-1] == b[j-1] {
					out.Identities++
				}
				i, j = i-1, j-1
			case h == E[idx]:
				st = inE
			case h == F[idx]:
				st = inF
			default:
				panic(fmt.Sprintf("swalign: inconsistent H cell at (%d,%d)", i, j))
			}
		case inE: // gap consuming b[j-1]
			ops = append(ops, OpDeleteB)
			e := E[idx]
			prevH := H[idx-1] - int32(qr)
			j--
			if e == prevH {
				st = inH
			} else if e != E[idx-1]-int32(r) {
				panic(fmt.Sprintf("swalign: inconsistent E cell at (%d,%d)", i, j+1))
			}
		case inF: // gap consuming a[i-1]
			ops = append(ops, OpInsertA)
			f := F[idx]
			prevH := H[idx-stride] - int32(qr)
			i--
			if f == prevH {
				st = inH
			} else if f != F[idx-stride]-int32(r) {
				panic(fmt.Sprintf("swalign: inconsistent F cell at (%d,%d)", i+1, j))
			}
		}
	}
done:
	// ops were collected tail-to-head; reverse.
	for l, rr := 0, len(ops)-1; l < rr; l, rr = l+1, rr-1 {
		ops[l], ops[rr] = ops[rr], ops[l]
	}
	out.Ops = ops
	out.AStart, out.AEnd = i, bestI
	out.BStart, out.BEnd = j, bestJ
	return out
}

// checkAlignEqualsFullMatrix fails t when Align and alignFullMatrix differ
// on a × b in score, coordinates, identities or path.
func checkAlignEqualsFullMatrix(t *testing.T, a, b []alphabet.Code, sc Scoring) {
	t.Helper()
	got, want := Align(a, b, sc), alignFullMatrix(a, b, sc)
	if got.Score != want.Score || got.AStart != want.AStart || got.AEnd != want.AEnd ||
		got.BStart != want.BStart || got.BEnd != want.BEnd ||
		got.Identities != want.Identities || !slices.Equal(got.Ops, want.Ops) {
		t.Fatalf("%s q=%d r=%d a=%v b=%v:\nAlign      score %d a[%d:%d] b[%d:%d] id %d %s\nfullMatrix score %d a[%d:%d] b[%d:%d] id %d %s",
			sc.Matrix.Name(), sc.GapOpen, sc.GapExtend, a, b,
			got.Score, got.AStart, got.AEnd, got.BStart, got.BEnd, got.Identities, got.CIGAR(),
			want.Score, want.AStart, want.AEnd, want.BStart, want.BEnd, want.Identities, want.CIGAR())
	}
	if s := Score(a, b, sc); s != want.Score {
		t.Fatalf("Score %d, full matrix %d", s, want.Score)
	}
}

// mutate copies s with substitutions, insertions and deletions, each at
// about rate per residue, drawing new residues from k letters.
func mutate(rng *rand.Rand, s []alphabet.Code, k int, rate float64) []alphabet.Code {
	out := make([]alphabet.Code, 0, len(s)+4)
	for _, c := range s {
		switch x := rng.Float64(); {
		case x < rate: // substitution
			out = append(out, alphabet.Code(rng.Intn(k)))
		case x < 2*rate: // deletion
		case x < 3*rate: // insertion of one to three residues
			for n := rng.Intn(3) + 1; n > 0; n-- {
				out = append(out, alphabet.Code(rng.Intn(k)))
			}
			out = append(out, c)
		default:
			out = append(out, c)
		}
	}
	return out
}

// TestAlignEqualsFullMatrix pins the direction-byte traceback to the
// three-matrix one it replaced over 24,000 seeded pairs: unrelated pairs
// over alphabets of 1-20 letters (small alphabets make ties in H, E and F
// common), mutated copies with indels, three protein matrices and DNA
// under NUC, and gap penalties from free (0/0) to above a signed byte
// (120/10).
func TestAlignEqualsFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	matrices := []struct {
		m *submat.Matrix
		k int // letters drawn: the alphabet's standard residues
	}{
		{submat.BLOSUM62, 20}, {submat.BLOSUM50, 20}, {submat.PAM250, 20}, {submat.NUC, 4},
	}
	gaps := [][2]int{{0, 0}, {0, 1}, {5, 0}, {10, 2}, {14, 2}, {120, 10}}
	for _, mat := range matrices {
		for _, g := range gaps {
			sc := Scoring{Matrix: mat.m, GapOpen: g[0], GapExtend: g[1]}
			for trial := 0; trial < 1000; trial++ {
				k := rng.Intn(mat.k) + 1
				a := randCodes(rng, rng.Intn(60)+1, k)
				var b []alphabet.Code
				if trial%2 == 0 {
					b = randCodes(rng, rng.Intn(60)+1, k)
				} else {
					b = mutate(rng, a, k, 0.02+0.1*rng.Float64())
				}
				checkAlignEqualsFullMatrix(t, a, b, sc)
			}
		}
	}
}

func randCodes(rng *rand.Rand, n, k int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = alphabet.Code(rng.Intn(k))
	}
	return s
}

// FuzzAlign compares Align with alignFullMatrix on arbitrary residue
// strings. Residues are protein letters (a byte outside the alphabet is
// dropped), matrix picks BLOSUM62, BLOSUM50 or PAM250, and the gap
// penalties are gapOpen mod 128 and gapExtend mod 16.
func FuzzAlign(f *testing.F) {
	seeds := []struct {
		a, b   string
		matrix uint8
		q, r   uint8
	}{
		{"W", "WAW", 0, 10, 2},             // the maximum twice in one row: the first column wins
		{"WAW", "W", 0, 10, 2},             // the maximum in two rows: the first row wins
		{"CC", "GG", 0, 10, 2},             // all mismatch: score 0, no path
		{"CCCY", "CAABY", 2, 2, 2},         // E opens and extends at equal cost on the path: 3M1D1M, not 1M3D1M
		{"WVLAYW", "WLW", 2, 4, 3},         // an F open/extend tie on the path: 1M1I1M2I1M, not 2M3I1M
		{"HEAGAWGHEE", "PAWHEAE", 1, 0, 8}, // Durbin et al. §2.3
		{"MKWVLAHHWWKY", "MKWVLWWKY", 0, 10, 2},
	}
	for _, s := range seeds {
		f.Add([]byte(s.a), []byte(s.b), s.matrix, s.q, s.r)
	}
	matrices := []*submat.Matrix{submat.BLOSUM62, submat.BLOSUM50, submat.PAM250}
	f.Fuzz(func(t *testing.T, a, b []byte, matrix, q, r uint8) {
		if len(a) > 300 || len(b) > 300 {
			return
		}
		sc := Scoring{Matrix: matrices[int(matrix)%len(matrices)], GapOpen: int(q % 128), GapExtend: int(r % 16)}
		checkAlignEqualsFullMatrix(t, encodeValid(a), encodeValid(b), sc)
	})
}

func encodeValid(s []byte) []alphabet.Code {
	var out []alphabet.Code
	for _, c := range s {
		if code, ok := alphabet.Protein.Encode(c); ok {
			out = append(out, code)
		}
	}
	return out
}
