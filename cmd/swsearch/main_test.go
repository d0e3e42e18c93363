package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSelf builds this command into a scratch directory.
func buildSelf(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swsearch")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A synthetic search reports what this host did — wall GCUPS, the planted
// query as its own top hit — and nothing of the device model; the flags
// that used to select a modelled device, roster or schedule are gone.
func TestSmoke(t *testing.T) {
	bin := buildSelf(t)
	out, err := exec.Command(bin, "-synthetic", "0.001", "-top", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("swsearch: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"GCUPS wall", "overflow escalations:", "   1 P02232"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "simulated") {
		t.Errorf("output quotes the device model:\n%s", text)
	}

	for _, gone := range []string{
		"-hetero", "-phishare=0.5", "-devices=xeon,phi", "-dist=dynamic", "-shares=0.5,0.5",
		"-device=phi", "-threads=4", "-schedule=static", "-noblocking",
	} {
		out, err := exec.Command(bin, "-synthetic", "0.001", gone).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("%s: err %v, want flag's exit 2\n%s", gone, err, out)
		}
	}
}
