package heterosw

import (
	"fmt"
	"io"
	"strings"
)

// writeReport renders WriteFormat's "blast" format, the output of
// swsearch -blast.
func writeReport(w io.Writer, query Sequence, db *Database, res *Result, width int) error {
	if query.impl == nil {
		return fmt.Errorf("heterosw: zero-value query")
	}
	if db == nil || res == nil {
		return fmt.Errorf("heterosw: nil database or result")
	}
	if width <= 0 {
		width = 60
	}
	var sb strings.Builder
	unit := "aa"
	if query.Alphabet() == "dna" {
		unit = "nt"
	}
	fmt.Fprintf(&sb, "query:    %s (%d %s)\n", query.ID(), query.Len(), unit)
	fmt.Fprintf(&sb, "database: %s\n", db)
	if res.Significance != nil {
		fmt.Fprintf(&sb, "model:    %s\n", res.Significance)
	}
	sb.WriteByte('\n')

	idw := len("subject")
	for _, h := range res.Hits {
		if len(h.ID) > idw {
			idw = len(h.ID)
		}
	}
	fmt.Fprintf(&sb, "%4s  %-*s %7s", "#", idw, "subject", "score")
	withSig := res.Significance != nil
	var withAlign, withFrame bool
	for _, h := range res.Hits {
		if h.Alignment != nil {
			withAlign = true
		}
		if h.Frame != 0 {
			withFrame = true
		}
	}
	if withFrame {
		fmt.Fprintf(&sb, " %5s", "frame")
	}
	if withSig {
		fmt.Fprintf(&sb, " %8s %10s", "bits", "e-value")
	}
	if withAlign {
		fmt.Fprintf(&sb, "  %-11s %s", "identities", "cigar")
	}
	sb.WriteByte('\n')
	for i, h := range res.Hits {
		fmt.Fprintf(&sb, "%4d  %-*s %7d", i+1, idw, h.ID, h.Score)
		if withFrame {
			fmt.Fprintf(&sb, " %+5d", h.Frame)
		}
		if withSig {
			if h.Significance != nil {
				fmt.Fprintf(&sb, " %8.1f %10.3g", h.Significance.BitScore, h.Significance.EValue)
			} else {
				fmt.Fprintf(&sb, " %8s %10s", "-", "-")
			}
		}
		if withAlign {
			if a := h.Alignment; a != nil {
				fmt.Fprintf(&sb, "  %-11s %s", fmt.Sprintf("%d/%d", a.Identities, a.Columns), a.CIGAR)
			} else {
				fmt.Fprintf(&sb, "  %-11s %s", "-", "-")
			}
		}
		sb.WriteByte('\n')
	}

	var frames map[int]Sequence
	for _, h := range res.Hits {
		if h.Alignment == nil {
			continue
		}
		// Translated hits expand their CIGAR against the winning frame's
		// protein, not the DNA query.
		sb.WriteByte('\n')
		if err := renderHitAlignment(&sb, effectiveQuery(query, h, &frames), db.Seq(h.Index), h, width); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// renderHitAlignment writes one hit's BLAST-style alignment block: a
// header line with score, range and identity summary, then wrapped
// query/midline/subject rows with 1-based residue coordinates.
func renderHitAlignment(sb *strings.Builder, query, subject Sequence, h Hit, width int) error {
	a := h.Alignment
	fmt.Fprintf(sb, "> %s  score=%d", h.ID, h.Score)
	if h.Frame != 0 {
		fmt.Fprintf(sb, " frame=%+d query_dna=%d..%d", h.Frame, a.QueryDNAStart+1, a.QueryDNAEnd)
	}
	if s := h.Significance; s != nil {
		fmt.Fprintf(sb, " bits=%.1f evalue=%.3g", s.BitScore, s.EValue)
	}
	sb.WriteByte('\n')
	if a.CIGAR == "*" || a.Columns == 0 {
		sb.WriteString("  (no alignment)\n")
		return nil
	}
	fmt.Fprintf(sb, "  identities=%d/%d (%.0f%%), query %d..%d, subject %d..%d\n",
		a.Identities, a.Columns, 100*float64(a.Identities)/float64(a.Columns),
		a.QueryStart+1, a.QueryEnd, a.SubjectStart+1, a.SubjectEnd)

	qSeq, sSeq := query.String(), subject.String()
	qRow, mRow, sRow, err := expandCIGAR(a, qSeq, sSeq)
	if err != nil {
		return fmt.Errorf("heterosw: hit %s: %w", h.ID, err)
	}
	qPos, sPos := a.QueryStart+1, a.SubjectStart+1
	for off := 0; off < len(qRow); off += width {
		end := off + width
		if end > len(qRow) {
			end = len(qRow)
		}
		qEnd, sEnd := qPos, sPos
		for _, b := range qRow[off:end] {
			if b != '-' {
				qEnd++
			}
		}
		for _, b := range sRow[off:end] {
			if b != '-' {
				sEnd++
			}
		}
		// A wrapped row that consumes no residues of one sequence (a gap
		// run spanning the whole row) labels both ends with the last
		// consumed coordinate, as BLAST does — never an inverted n..n-1
		// range. A local alignment starts and ends on match columns, so a
		// consumed residue always precedes such a row.
		qFrom, qTo := qPos, qEnd-1
		if qEnd == qPos {
			qFrom = qPos - 1
			qTo = qPos - 1
		}
		sFrom, sTo := sPos, sEnd-1
		if sEnd == sPos {
			sFrom = sPos - 1
			sTo = sPos - 1
		}
		fmt.Fprintf(sb, "  Query %6d %s %d\n", qFrom, qRow[off:end], qTo)
		fmt.Fprintf(sb, "  %12s %s\n", "", mRow[off:end])
		fmt.Fprintf(sb, "  Sbjct %6d %s %d\n", sFrom, sRow[off:end], sTo)
		qPos, sPos = qEnd, sEnd
	}
	return nil
}

// expandCIGAR reconstructs the three display rows of an alignment from
// its CIGAR path and the two sequences: M columns consume a residue of
// both, D a residue of the subject against a gap in the query, I a
// residue of the query against a gap in the subject.
func expandCIGAR(a *HitAlignment, qSeq, sSeq string) (qRow, mRow, sRow []byte, err error) {
	qi, si := a.QueryStart, a.SubjectStart
	c := a.CIGAR
	err = cigarRuns(c, func(run int, op byte) error {
		for k := 0; k < run; k++ {
			switch op {
			case 'M':
				if qi >= len(qSeq) || si >= len(sSeq) {
					return fmt.Errorf("CIGAR %q overruns sequences", c)
				}
				qb, sb := qSeq[qi], sSeq[si]
				qRow = append(qRow, qb)
				sRow = append(sRow, sb)
				if qb == sb {
					mRow = append(mRow, '|')
				} else {
					mRow = append(mRow, ' ')
				}
				qi++
				si++
			case 'D': // gap in the query, consuming a subject residue
				if si >= len(sSeq) {
					return fmt.Errorf("CIGAR %q overruns subject", c)
				}
				qRow = append(qRow, '-')
				mRow = append(mRow, ' ')
				sRow = append(sRow, sSeq[si])
				si++
			case 'I': // query residue against a gap in the subject
				if qi >= len(qSeq) {
					return fmt.Errorf("CIGAR %q overruns query", c)
				}
				qRow = append(qRow, qSeq[qi])
				mRow = append(mRow, ' ')
				sRow = append(sRow, '-')
				qi++
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if qi != a.QueryEnd || si != a.SubjectEnd {
		return nil, nil, nil, fmt.Errorf("CIGAR %q ends at query %d subject %d, want %d %d",
			c, qi, si, a.QueryEnd, a.SubjectEnd)
	}
	return qRow, mRow, sRow, nil
}
