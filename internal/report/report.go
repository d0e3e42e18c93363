// Package report renders reproduced figures as aligned text tables and CSV
// so swbench can print exactly the rows/series the paper plots.
package report

import (
	"fmt"
	"io"
	"strings"

	"heterosw/internal/figures"
)

// Table renders a figure as an aligned text table: one row per x value,
// one column per series.
func Table(w io.Writer, f *figures.Figure) error {
	if len(f.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s: (no data)\n", f.ID)
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", strings.ToUpper(f.ID), f.Title)
	for _, note := range f.PaperNotes {
		fmt.Fprintf(&b, "#  %s\n", note)
	}

	// Header.
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')

	// Rows: x values come from the first series; all series in one figure
	// share the x grid by construction.
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-14s", trimFloat(f.Series[0].X[i]))
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14.2f", s.Y[i])
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV renders a figure as comma-separated values with a header row.
func CSV(w io.Writer, f *figures.Figure) error {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			b.WriteString(trimFloat(f.Series[0].X[i]))
			for _, s := range f.Series {
				fmt.Fprintf(&b, ",%.4f", s.Y[i])
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// trimFloat renders an x coordinate without trailing zeros (thread counts
// and query lengths are integers; shares are percentages).
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Summary renders a one-line per-series summary (final value), used by the
// harness's terse mode.
func Summary(w io.Writer, f *figures.Figure) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", f.ID)
	for _, s := range f.Series {
		if len(s.Y) == 0 {
			continue
		}
		best := s.Y[0]
		for _, y := range s.Y[1:] {
			if y > best {
				best = y
			}
		}
		fmt.Fprintf(&b, " %s=%.1f", s.Label, best)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
