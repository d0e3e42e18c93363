package model

import (
	"strings"
	"testing"
)

func testFigure() *Figure {
	return &Figure{
		ID: "fig3", Title: "Example", XLabel: "threads", YLabel: "GCUPS",
		PaperNotes: []string{"paper: something"},
		Series: []Series{
			{Label: "intrinsic-SP", X: []float64{1, 2}, Y: []float64{1.5, 3.01}},
			{Label: "simd,QP", X: []float64{1, 2}, Y: []float64{0.7, 1.4}},
		},
	}
}

func TestTable(t *testing.T) {
	var sb strings.Builder
	if err := Table(&sb, testFigure()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIG3", "intrinsic-SP", "threads", "3.01", "paper: something"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + note + header + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestTableEmpty(t *testing.T) {
	var sb strings.Builder
	if err := Table(&sb, &Figure{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty figure output: %q", sb.String())
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	if err := CSV(&sb, testFigure()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if lines[0] != `threads,intrinsic-SP,"simd,QP"` {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,1.5000,") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestSummary(t *testing.T) {
	var sb strings.Builder
	if err := Summary(&sb, testFigure()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "intrinsic-SP=3.0") {
		t.Errorf("summary = %q", sb.String())
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a"b`); got != `"a""b"` {
		t.Errorf("escape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("escape = %q", got)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(32) != "32" {
		t.Errorf("trimFloat(32) = %q", trimFloat(32))
	}
	if trimFloat(0.55) != "0.55" {
		t.Errorf("trimFloat(0.55) = %q", trimFloat(0.55))
	}
}
