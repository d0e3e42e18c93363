package sequence

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"heterosw/internal/alphabet"
)

// ReadFASTA parses all records from a FASTA stream under alpha. Sequence
// data may span multiple lines; blank lines and ';' comment lines are
// ignored. Residue letters outside the alphabet encode as its unknown code
// (X for protein, N for DNA), matching the tolerance of typical
// database-search tools on Swiss-Prot dumps; lowercase soft-masked
// residues encode case-insensitively.
func ReadFASTA(r io.Reader, alpha *alphabet.Alphabet) ([]*Sequence, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var (
		out  []*Sequence
		cur  *Sequence
		body []alphabet.Code
		line int
	)
	flush := func() {
		if cur != nil {
			cur.Residues = body
			body = nil
			out = append(out, cur)
			cur = nil
		}
	}
	for {
		raw, err := br.ReadBytes('\n')
		line++
		if len(raw) > 0 {
			l := bytes.TrimSpace(raw)
			switch {
			case len(l) == 0 || l[0] == ';':
				// skip
			case l[0] == '>':
				flush()
				header := string(l[1:])
				id, desc, _ := strings.Cut(strings.TrimSpace(header), " ")
				if id == "" {
					return nil, fmt.Errorf("fasta: line %d: empty header", line)
				}
				cur = &Sequence{ID: id, Desc: strings.TrimSpace(desc), Alpha: alpha}
				body = make([]alphabet.Code, 0, 256)
			default:
				if cur == nil {
					return nil, fmt.Errorf("fasta: line %d: sequence data before first header", line)
				}
				for _, b := range l {
					body = append(body, alpha.MustEncode(b))
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fasta: line %d: %v", line, err)
		}
	}
	flush()
	return out, nil
}

// ReadFASTAFile reads all records from a FASTA file on disk under the
// protein alphabet.
func ReadFASTAFile(path string) ([]*Sequence, error) {
	return ReadFASTAFileAlpha(path, alphabet.Protein)
}

// ReadFASTAFileAlpha reads all records from a FASTA file on disk under an
// explicit alphabet.
func ReadFASTAFileAlpha(path string, alpha *alphabet.Alphabet) ([]*Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFASTA(f, alpha)
}

// WriteFASTA writes records in FASTA format with lines wrapped at width
// residues (60 if width <= 0). Each record decodes under its own alphabet.
func WriteFASTA(w io.Writer, seqs []*Sequence, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, s := range seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Header()); err != nil {
			return err
		}
		letters := s.Alphabet().DecodeAll(s.Residues)
		for off := 0; off < len(letters); off += width {
			end := off + width
			if end > len(letters) {
				end = len(letters)
			}
			if _, err := bw.Write(letters[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFASTAFile writes records to a FASTA file on disk.
func WriteFASTAFile(path string, seqs []*Sequence, width int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFASTA(f, seqs, width); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
