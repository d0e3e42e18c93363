package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSelf builds this command into a scratch directory.
func buildSelf(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// The -devices table prices a roster: one row per distribution, one column
// per device beside dist, makespan and GCUPS.
func TestDevicesTable(t *testing.T) {
	bin := buildSelf(t)
	out, err := exec.Command(bin, "-devices", "xeon,phi,phi", "-scale", "0.01").CombinedOutput()
	if err != nil {
		t.Fatalf("swbench: %v\n%s", err, out)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 4 {
		t.Fatalf("%d table lines, want a header and three distributions:\n%s", len(rows), out)
	}
	if got, want := strings.Join(strings.Fields(rows[0]), " "), "dist makespan s GCUPS xeon#0 phi#1 phi#2"; got != want {
		t.Errorf("header %q, want %q", got, want)
	}
	for i, dist := range []string{"static", "dynamic", "guided"} {
		// A device column reads "33.0% (24 chk)".
		cells := strings.Split(rows[i+1], " chk)")
		if !strings.HasPrefix(rows[i+1], dist) || len(cells) != 3+1 {
			t.Errorf("row %d: %q, want %s and three device columns", i, rows[i+1], dist)
		}
	}
}

// The planner's and the figures' numbers are pinned byte for byte: every
// line but the "#" comments, which carry the host's SIMD tier and the
// generation time, must equal the golden file.
func TestGoldenOutput(t *testing.T) {
	bin := buildSelf(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"devices_xeon_phi_phi", []string{"-devices", "xeon,phi,phi", "-scale", "0.01"}},
		{"devices_xeon_phi_q144", []string{"-devices", "xeon,phi", "-qlen", "144", "-scale", "0.01"}},
		{"fig_all_csv", []string{"-fig", "all", "-scale", "0.01", "-csv"}},
	} {
		out, err := exec.Command(bin, tc.args...).Output()
		if err != nil {
			t.Fatalf("swbench %v: %v", tc.args, err)
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if !strings.HasPrefix(line, "#") {
				got.WriteString(line)
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("swbench %v differs from testdata/%s.golden:\n%s", tc.args, tc.golden, got.String())
		}
	}
}
