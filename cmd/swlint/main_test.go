package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// swlintFixture is a throwaway module of two packages: clean, whose hot
// path allocates nothing, and dirty, whose hot path appends inside its
// loop on line 6 of dirty.go.
var swlintFixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.24\n",
	"clean/clean.go": `package clean

//sw:hotpath
func Sum(xs []int32) (s int32) {
	for _, x := range xs {
		s += x
	}
	return s
}
`,
	"dirty/dirty.go": `package dirty

//sw:hotpath
func Collect(dst, xs []int32) []int32 {
	for _, x := range xs {
		dst = append(dst, x)
	}
	return dst
}
`,
}

// TestSmoke builds swlint and runs it over the fixture module: the clean
// package must pass with exit status 0 and no output, and the package
// with a //sw:hotpath violation must fail with status 1 and name the
// offending file:line and the analyzer.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "swlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	mod := t.TempDir()
	for name, src := range swlintFixture {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(pkg string) (string, int) {
		cmd := exec.Command(bin, pkg)
		cmd.Dir = mod
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return string(out), 0
		case errors.As(err, &exit):
			return string(out), exit.ExitCode()
		}
		t.Fatalf("swlint %s: %v\n%s", pkg, err, stderr.String())
		return "", 0
	}

	if out, code := run("./clean"); code != 0 || out != "" {
		t.Errorf("swlint ./clean: exit %d, output %q; want 0 and none", code, out)
	}
	out, code := run("./dirty")
	if code != 1 {
		t.Errorf("swlint ./dirty: exit %d, want 1", code)
	}
	if want := filepath.Join("dirty", "dirty.go") + ":6:"; !strings.Contains(out, want) || !strings.Contains(out, "(hotalloc)") {
		t.Errorf("swlint ./dirty printed %q; want a hotalloc finding at %s", out, want)
	}
}
