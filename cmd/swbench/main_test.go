package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The -devices table prices a roster: one row per distribution, one column
// per device beside dist, makespan and GCUPS.
func TestDevicesTable(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "swbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
