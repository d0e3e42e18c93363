package submat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"heterosw/internal/alphabet"
)

// Parse reads a substitution matrix in the NCBI textual format against a
// target alphabet: '#' comment lines, a header row of residue letters, then
// one row per residue starting with its letter followed by integer scores.
// Residues may appear in any order and a subset of the alphabet is allowed;
// absent pairs score the minimum of the parsed cells (mirroring how search
// tools treat rare codes). Every parse failure wraps ErrBadMatrix (see the
// sentinel family), so the serving layer can map user-supplied matrix text
// errors to one client-error class.
func Parse(name string, r io.Reader, alpha *alphabet.Alphabet) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)

	n := alpha.Size()
	var header []alphabet.Code
	scores := make([]int8, n*n)
	seen := make([]bool, n*n)
	rows := 0

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if header == nil {
			for _, f := range fields {
				if len(f) != 1 {
					return nil, fmt.Errorf("%w: %s: bad header token %q", ErrBadAlphabet, name, f)
				}
				c, ok := alpha.Encode(f[0])
				if !ok {
					return nil, fmt.Errorf("%w: %s: residue %q in header is not in the %s alphabet",
						ErrBadAlphabet, name, f, alpha.Name())
				}
				header = append(header, c)
			}
			continue
		}
		if len(fields) != len(header)+1 {
			return nil, fmt.Errorf("%w: %s: row %q has %d scores, want %d",
				ErrNotSquare, name, fields[0], len(fields)-1, len(header))
		}
		if len(fields[0]) != 1 {
			return nil, fmt.Errorf("%w: %s: bad row label %q", ErrBadAlphabet, name, fields[0])
		}
		rowRes, ok := alpha.Encode(fields[0][0])
		if !ok {
			return nil, fmt.Errorf("%w: %s: row residue %q is not in the %s alphabet",
				ErrBadAlphabet, name, fields[0], alpha.Name())
		}
		for k, f := range fields[1:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: bad score %q in row %c: %v", ErrBadMatrix, name, f, fields[0][0], err)
			}
			if v < -128 || v > 127 {
				return nil, fmt.Errorf("%w: %s: score %d in row %c", ErrScoreRange, name, v, fields[0][0])
			}
			scores[int(rowRes)*n+int(header[k])] = int8(v)
			seen[int(rowRes)*n+int(header[k])] = true
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMatrix, name, err)
	}
	if header == nil || rows == 0 {
		return nil, fmt.Errorf("%w: %s: no matrix data found", ErrNotSquare, name)
	}

	// Fill cells not covered by the file with the matrix minimum so that
	// partial matrices still produce sane (strongly negative) scores.
	minSeen := int8(127)
	for i, s := range seen {
		if s && scores[i] < minSeen {
			minSeen = scores[i]
		}
	}
	for i, s := range seen {
		if !s {
			scores[i] = minSeen
		}
	}
	return New(name, alpha, scores)
}

// MustParse is like Parse on a protein-alphabet string but panics on
// error. It is intended for the built-in matrix literals, where a parse
// failure is a programming error caught at package initialisation.
func MustParse(name, text string) *Matrix {
	m, err := Parse(name, strings.NewReader(text), alphabet.Protein)
	if err != nil {
		panic(err)
	}
	return m
}

// Format renders the matrix in NCBI textual form, suitable for Parse.
func Format(m *Matrix) string {
	var b strings.Builder
	letters := m.alpha.Letters()
	fmt.Fprintf(&b, "# %s\n ", m.Name())
	for i := 0; i < m.n; i++ {
		fmt.Fprintf(&b, " %2c", letters[i])
	}
	b.WriteByte('\n')
	for i := 0; i < m.n; i++ {
		fmt.Fprintf(&b, "%c", letters[i])
		for j := 0; j < m.n; j++ {
			fmt.Fprintf(&b, " %2d", m.scores[i*m.n+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
