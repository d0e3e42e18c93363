package main

import (
	"bytes"
	"strings"
	"testing"
)

func wallRow(name string, gcups float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, GCUPS: gcups, GCUPSSource: "wall"}
}

// TestDiffListsUngated pins that a benchmark without a baseline row is
// printed as ungated and never counted as a regression, while a shared
// one is still gated.
func TestDiffListsUngated(t *testing.T) {
	oldArt := &Artifact{Benchmarks: []Benchmark{wallRow("BenchmarkA", 10), wallRow("BenchmarkB", 10)}}
	newArt := &Artifact{Benchmarks: []Benchmark{
		wallRow("BenchmarkNew/rows=1", 2),
		wallRow("BenchmarkA", 1), // -90%: beyond the wall threshold
		wallRow("BenchmarkB", 9),
		{Name: "BenchmarkNoRate", Iterations: 1, QueriesPerSec: 5},
	}}
	var out bytes.Buffer
	if n := diff(&out, oldArt, newArt, 0.20, 0.50); n != 1 {
		t.Fatalf("diff counted %d regressions, want 1 (BenchmarkA only):\n%s", n, out.String())
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = l
		}
	}
	for name, want := range map[string]string{
		"BenchmarkA":          "REGRESSION (wall",
		"BenchmarkB":          "ok (wall)",
		"BenchmarkNew/rows=1": "ungated (no baseline)",
		"BenchmarkNoRate":     "ungated (no baseline)",
	} {
		if !strings.Contains(lines[name], want) {
			t.Errorf("%s: line %q, want it to contain %q\n%s", name, lines[name], want, out.String())
		}
	}
	if !strings.Contains(lines["BenchmarkNew/rows=1"], "2.000") {
		t.Errorf("ungated row does not show its gcups: %q", lines["BenchmarkNew/rows=1"])
	}
}

// TestDiffListsMissing pins that a baseline row with no current row — a
// deleted benchmark, or a tier-specific one the runner cannot run — is
// listed as missing with its baseline gcups and never counted as a
// regression, however far the shared rows stay within their thresholds.
func TestDiffListsMissing(t *testing.T) {
	oldArt := &Artifact{Benchmarks: []Benchmark{
		wallRow("BenchmarkKept", 10),
		wallRow("BenchmarkGone", 7),
		wallRow("BenchmarkStepCol8QP/avx2+vbmi/rows=30", 12),
	}}
	newArt := &Artifact{Benchmarks: []Benchmark{wallRow("BenchmarkKept", 10)}}
	var out bytes.Buffer
	if n := diff(&out, oldArt, newArt, 0.20, 0.50); n != 0 {
		t.Fatalf("diff counted %d regressions, want 0:\n%s", n, out.String())
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = l
		}
	}
	for name, want := range map[string]string{
		"BenchmarkKept":                         "ok (wall)",
		"BenchmarkGone":                         "missing (no current row)",
		"BenchmarkStepCol8QP/avx2+vbmi/rows=30": "missing (no current row)",
	} {
		if !strings.Contains(lines[name], want) {
			t.Errorf("%s: line %q, want it to contain %q\n%s", name, lines[name], want, out.String())
		}
	}
	if !strings.Contains(lines["BenchmarkGone"], "7.000") {
		t.Errorf("missing row does not show its baseline gcups: %q", lines["BenchmarkGone"])
	}
}
