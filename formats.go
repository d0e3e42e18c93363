package heterosw

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"heterosw/internal/translate"
)

// Formats lists the search output formats WriteFormat renders: "blast"
// (a BLAST-style text report), "sam" (SAM 1.6 alignment lines) and "tsv"
// (BLAST tabular outfmt-6 columns).
func Formats() []string { return []string{"blast", "sam", "tsv"} }

// WriteFormat renders a search result in the named format (see Formats;
// "" is "blast"). Any other name is an error.
//
//   - "blast" is the output of swsearch -blast: a header naming the query,
//     database and fitted significance model, a ranked hit table (score,
//     bit score, E-value, identities, CIGAR, each column present when its
//     reporting phase ran) and a wrapped three-line alignment block for
//     every hit with a traceback, at width columns (60 when <= 0). A
//     result without ReportOptions renders as a plain score table.
//   - "sam" writes one @SQ header line per hit subject, then one SAM 1.6
//     line per hit with a traceback. The read is the query (for
//     translated searches, the winning frame's protein, with the frame in
//     ZF:i); unaligned query ends are soft clips, the score rides in AS:i
//     and the E-value in ZE:f.
//   - "tsv" writes BLAST outfmt-6 columns (qseqid sseqid pident length
//     mismatch gapopen qstart qend sstart send evalue bitscore), 1-based
//     inclusive, one line per hit with a traceback. A translated hit's
//     query range counts nucleotides of the DNA query, qstart > qend on a
//     reverse frame; missing significance renders as "-".
//
// width only affects "blast".
func WriteFormat(w io.Writer, format string, query Sequence, db *Database, res *Result, width int) error {
	switch format {
	case "", "blast":
		return writeReport(w, query, db, res, width)
	case "sam":
		return writeSAM(w, query, db, res)
	case "tsv":
		return writeTSV(w, query, db, res)
	}
	return fmt.Errorf("heterosw: unknown output format %q (have %s)",
		format, strings.Join(Formats(), ", "))
}

// frameQueries translates a DNA query into its six frame proteins, keyed
// by frame index (+1..+3, -1..-3), as the frame queries a translated
// search runs.
func frameQueries(query Sequence) map[int]Sequence {
	out := make(map[int]Sequence, 6)
	if query.impl == nil {
		return out
	}
	for _, f := range translate.Frames(query.impl.Residues) {
		out[f.Index] = Sequence{impl: frameSeq(query, f)}
	}
	return out
}

// effectiveQuery resolves the sequence a hit's CIGAR applies to: the query
// itself for direct searches, the winning frame's protein for translated
// hits (lazily translating into frames on first use).
func effectiveQuery(query Sequence, h Hit, frames *map[int]Sequence) Sequence {
	if h.Frame == 0 {
		return query
	}
	if *frames == nil {
		*frames = frameQueries(query)
	}
	return (*frames)[h.Frame]
}

// writeSAM renders WriteFormat's "sam" format. SEQ and CIGAR are in
// alignment orientation: a translated hit's frame protein is what aligned,
// so FLAG stays 0 and the strand travels only in ZF:i. (FLAG 0x10 would
// claim SEQ is the reverse complement of the read, which a frame protein
// is not, and a consumer undoing it would corrupt the record.)
func writeSAM(w io.Writer, query Sequence, db *Database, res *Result) error {
	if query.impl == nil {
		return fmt.Errorf("heterosw: zero-value query")
	}
	if db == nil || res == nil {
		return fmt.Errorf("heterosw: nil database or result")
	}
	var sb strings.Builder
	sb.WriteString("@HD\tVN:1.6\tSO:unknown\n")
	seen := make(map[int]bool)
	for _, h := range res.Hits {
		if h.Alignment == nil || seen[h.Index] {
			continue
		}
		seen[h.Index] = true
		fmt.Fprintf(&sb, "@SQ\tSN:%s\tLN:%d\n", sanitizeField(h.ID), db.Seq(h.Index).Len())
	}
	sb.WriteString("@PG\tID:heterosw\tPN:heterosw\n")

	var frames map[int]Sequence
	for _, h := range res.Hits {
		a := h.Alignment
		if a == nil || a.CIGAR == "*" || a.Columns == 0 {
			continue
		}
		q := effectiveQuery(query, h, &frames)
		qseq := q.String()
		var cigar strings.Builder
		if a.QueryStart > 0 {
			fmt.Fprintf(&cigar, "%dS", a.QueryStart)
		}
		cigar.WriteString(a.CIGAR)
		if tail := len(qseq) - a.QueryEnd; tail > 0 {
			fmt.Fprintf(&cigar, "%dS", tail)
		}
		fmt.Fprintf(&sb, "%s\t0\t%s\t%d\t255\t%s\t*\t0\t0\t%s\t*\tAS:i:%d",
			sanitizeField(q.ID()), sanitizeField(h.ID), a.SubjectStart+1,
			cigar.String(), qseq, h.Score)
		if s := h.Significance; s != nil {
			fmt.Fprintf(&sb, "\tZE:f:%.3g", s.EValue)
		}
		if h.Frame != 0 {
			fmt.Fprintf(&sb, "\tZF:i:%d", h.Frame)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeTSV renders WriteFormat's "tsv" format.
func writeTSV(w io.Writer, query Sequence, db *Database, res *Result) error {
	if query.impl == nil {
		return fmt.Errorf("heterosw: zero-value query")
	}
	if db == nil || res == nil {
		return fmt.Errorf("heterosw: nil database or result")
	}
	var sb strings.Builder
	for _, h := range res.Hits {
		a := h.Alignment
		if a == nil || a.CIGAR == "*" || a.Columns == 0 {
			continue
		}
		matches, gapOpens, err := cigarStats(a.CIGAR)
		if err != nil {
			return fmt.Errorf("heterosw: hit %s: %w", h.ID, err)
		}
		qstart, qend := a.QueryStart+1, a.QueryEnd
		if h.Frame != 0 {
			qstart, qend = a.QueryDNAStart+1, a.QueryDNAEnd
			if h.Frame < 0 {
				qstart, qend = qend, qstart
			}
		}
		pident := 100 * float64(a.Identities) / float64(a.Columns)
		evalue, bits := "-", "-"
		if s := h.Significance; s != nil {
			evalue = fmt.Sprintf("%.3g", s.EValue)
			bits = fmt.Sprintf("%.1f", s.BitScore)
		}
		fmt.Fprintf(&sb, "%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			sanitizeField(query.ID()), sanitizeField(h.ID), pident, a.Columns,
			matches-a.Identities, gapOpens, qstart, qend,
			a.SubjectStart+1, a.SubjectEnd, evalue, bits)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// cigarStats counts the aligned (M) columns and gap openings (maximal D/I
// runs) of a CIGAR path.
func cigarStats(c string) (matches, gapOpens int, err error) {
	err = cigarRuns(c, func(run int, op byte) error {
		if op == 'M' {
			matches += run
		} else {
			gapOpens++
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return matches, gapOpens, nil
}

// cigarRuns walks a CIGAR path run by run, calling f with each run's
// length and op (M, D or I) in path order. It stops at the first malformed
// run, unknown op or error from f, and returns that error.
func cigarRuns(c string, f func(run int, op byte) error) error {
	for i := 0; i < len(c); {
		j := i
		for j < len(c) && c[j] >= '0' && c[j] <= '9' {
			j++
		}
		if j == i || j >= len(c) {
			return fmt.Errorf("malformed CIGAR %q", c)
		}
		run, err := strconv.Atoi(c[i:j])
		if err != nil || run <= 0 {
			return fmt.Errorf("malformed CIGAR %q", c)
		}
		switch c[j] {
		case 'M', 'D', 'I':
		default:
			return fmt.Errorf("unknown CIGAR op %q in %q", c[j], c)
		}
		if err := f(run, c[j]); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

// sanitizeField makes an identifier safe for tab-separated formats.
func sanitizeField(s string) string {
	if s == "" {
		return "*"
	}
	return strings.Map(func(r rune) rune {
		if r == '\t' || r == '\n' || r == '\r' || r == ' ' {
			return '_'
		}
		return r
	}, s)
}
