package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"heterosw"
	"heterosw/internal/seqdb/index"
)

// TestSmoke runs swgen twice with the same flags into two directories: the
// database FASTA, the query FASTA and the .swdb index must come out byte
// for byte the same (the synthetic generator is seeded), the index must be
// one index.SniffFile accepts, and it must hold the database the FASTA does.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "swgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	files := []string{"db.fasta", "q.fasta", "db.swdb"}
	var runs [2]string
	for i := range runs {
		dir := t.TempDir()
		runs[i] = dir
		cmd := exec.Command(bin, "-scale", "0.0002", "-o", "db.fasta", "-queries", "q.fasta", "-index", "db.swdb")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("swgen: %v\n%s", err, out)
		}
	}
	for _, name := range files {
		a, err := os.ReadFile(filepath.Join(runs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(runs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: %d and %d bytes, not identical across runs", name, len(a), len(b))
		}
	}

	ix, fasta := filepath.Join(runs[0], "db.swdb"), filepath.Join(runs[0], "db.fasta")
	if !index.SniffFile(ix) || index.SniffFile(fasta) {
		t.Fatalf("SniffFile: index %v, FASTA %v", index.SniffFile(ix), index.SniffFile(fasta))
	}
	fromIndex, err := heterosw.OpenIndexFile(ix)
	if err != nil {
		t.Fatal(err)
	}
	fromFASTA, err := heterosw.LoadDatabaseFile(fasta, "protein")
	if err != nil {
		t.Fatal(err)
	}
	if fromIndex.String() != fromFASTA.String() || fromIndex.Key() == "" {
		t.Errorf("index holds %s (key %q), FASTA %s", fromIndex, fromIndex.Key(), fromFASTA)
	}
	queries, err := heterosw.ReadFASTAFile(filepath.Join(runs[0], "q.fasta"), "protein")
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != len(heterosw.PaperQueryLengths()) {
		t.Errorf("%d queries, want the paper's %d", len(queries), len(heterosw.PaperQueryLengths()))
	}
}
