package main

// Independent scalar Smith-Waterman oracle: affine gaps in Gotoh's form over
// BLOSUM62, a gap of length x costing 10 + 2x as heterosw.Options documents.
// It shares no code with the repository's kernels or with
// internal/swalign; oracle_test.go checks the two agree.

import (
	"fmt"
	"strings"
)

const (
	gapOpen   = 10
	gapExtend = 2
)

// blosum62Text is the standard NCBI BLOSUM62 table restricted to the 20
// amino acids, the only letters the generator emits.
const blosum62Text = `
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4
`

// letterIndex maps an ASCII residue to its row in blosum62; -1 elsewhere.
var (
	letterIndex [256]int8
	blosum62    [20][20]int32
)

func init() {
	for i := range letterIndex {
		letterIndex[i] = -1
	}
	lines := strings.Split(strings.TrimSpace(blosum62Text), "\n")
	cols := strings.Fields(lines[0])
	for i, c := range cols {
		letterIndex[c[0]] = int8(i)
	}
	for i, line := range lines[1:] {
		f := strings.Fields(line)
		if f[0] != cols[i] || len(f) != len(cols)+1 {
			panic("bench: malformed BLOSUM62 table")
		}
		for j, v := range f[1:] {
			var s int32
			if _, err := fmt.Sscan(v, &s); err != nil {
				panic(err)
			}
			blosum62[i][j] = s
		}
	}
}

// oracleQuery is a query prepared for repeated scoring: one score row per
// alphabet letter, indexed by query position.
type oracleQuery struct {
	rows [20][]int32
	h, e []int32
}

func newOracleQuery(q []byte) *oracleQuery {
	o := &oracleQuery{h: make([]int32, len(q)), e: make([]int32, len(q))}
	for l := range o.rows {
		o.rows[l] = make([]int32, len(q))
		for i, c := range q {
			o.rows[l][i] = blosum62[letterIndex[c]][l]
		}
	}
	return o
}

// score returns the optimal local alignment score of the query against s.
func (o *oracleQuery) score(s []byte) int {
	const negInf = -1 << 28
	h, e := o.h, o.e
	for i := range h {
		h[i], e[i] = 0, negInf
	}
	var best int32
	for _, c := range s {
		row := o.rows[letterIndex[c]][:len(h)]
		var diag, up int32
		f := int32(negInf)
		for i, sc := range row {
			ev := max(e[i]-gapExtend, h[i]-gapOpen-gapExtend)
			f = max(f-gapExtend, up-gapOpen-gapExtend)
			hv := max(diag+sc, ev, f, 0)
			diag = h[i]
			h[i], e[i], up = hv, ev, hv
			best = max(best, hv)
		}
	}
	return int(best)
}

// swScore is the one-shot form of oracleQuery.score.
func swScore(q, s []byte) int { return newOracleQuery(q).score(s) }
