package heterosw

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"heterosw/internal/translate"
)

// Formats lists the supported search output formats: "blast" (the
// BLAST-style text report of WriteReport), "sam" (SAM 1.6 alignment
// lines) and "tsv" (BLAST tabular outfmt-6 columns).
func Formats() []string { return []string{"blast", "sam", "tsv"} }

// WriteFormat renders a search result in the named format (see Formats).
// width only affects the "blast" format's alignment wrap column.
func WriteFormat(w io.Writer, format string, query Sequence, db *Database, res *ClusterResult, width int) error {
	switch format {
	case "", "blast":
		return WriteReport(w, query, db, res, width)
	case "sam":
		return WriteSAM(w, query, db, res)
	case "tsv":
		return WriteTSV(w, query, db, res)
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

// WriteSAM renders the aligned hits of a search as SAM 1.6: one @SQ header
// line per hit subject, then one alignment line per hit carrying a
// traceback. The record's read is the search query (for translated
// searches, the winning frame's protein); unaligned query ends become
// soft clips, and the Smith-Waterman score rides in the AS:i tag (with
// ZF:i carrying the frame for translated hits). SEQ and CIGAR are always
// emitted in alignment orientation — the frame protein is what actually
// aligned, so FLAG stays 0 and the originating strand travels only in
// ZF:i. (Setting FLAG 0x10 would assert that SEQ is the reverse
// complement of the original read, which a frame protein is not: a
// consumer un-reverse-complementing per the flag would corrupt the
// record.) Hits without a traceback (no ReportOptions.Alignments, or
// beyond the aligned top-K) are omitted.
func WriteSAM(w io.Writer, query Sequence, db *Database, res *ClusterResult) error {
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

// WriteTSV renders the aligned hits of a search as BLAST tabular output
// (outfmt 6): qseqid sseqid pident length mismatch gapopen qstart qend
// sstart send evalue bitscore, tab-separated, one line per hit with a
// traceback. Coordinates are 1-based inclusive; for translated hits the
// query range is in nucleotides of the original DNA query, with qstart >
// qend marking reverse-frame hits as blastx does. Missing significance
// renders evalue and bitscore as "-".
func WriteTSV(w io.Writer, query Sequence, db *Database, res *ClusterResult) error {
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
	for i := 0; i < len(c); {
		j := i
		for j < len(c) && c[j] >= '0' && c[j] <= '9' {
			j++
		}
		if j == i || j >= len(c) {
			return 0, 0, fmt.Errorf("malformed CIGAR %q", c)
		}
		run, aerr := strconv.Atoi(c[i:j])
		if aerr != nil || run <= 0 {
			return 0, 0, fmt.Errorf("malformed CIGAR %q", c)
		}
		switch c[j] {
		case 'M':
			matches += run
		case 'D', 'I':
			gapOpens++
		default:
			return 0, 0, fmt.Errorf("unknown CIGAR op %q in %q", c[j], c)
		}
		i = j + 1
	}
	return matches, gapOpens, nil
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
