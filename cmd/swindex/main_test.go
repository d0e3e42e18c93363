package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"heterosw"
	"heterosw/internal/remote"
)

// TestSmoke drives the three subcommands over one small database: build
// turns a FASTA file into an index, info reports that index's engine key,
// and split -n 2 cuts it into two shard indexes and a manifest that
// validates, names the parent's key and covers every parent sequence.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "swindex")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("swindex %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	db, _ := heterosw.SyntheticSwissProt(0.0002, true)
	seqs := make([]heterosw.Sequence, db.Len())
	for i := range seqs {
		seqs[i] = db.Seq(i)
	}
	fasta, ix := filepath.Join(dir, "db.fasta"), filepath.Join(dir, "db.swdb")
	if err := heterosw.WriteFASTAFile(fasta, seqs); err != nil {
		t.Fatal(err)
	}

	run("build", fasta, "-o", ix)
	parent, err := heterosw.OpenIndexFile(ix)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Len() != db.Len() || parent.Residues() != db.Residues() {
		t.Fatalf("built index holds %s, FASTA %s", parent, db)
	}

	if out := run("info", ix); !strings.Contains(out, "engine key "+parent.Key()+")") {
		t.Errorf("info does not report the key %s:\n%s", parent.Key(), out)
	}

	shards := filepath.Join(dir, "shards")
	if err := os.Mkdir(shards, 0o755); err != nil {
		t.Fatal(err)
	}
	run("split", ix, "-n", "2", "-dir", shards)
	man, err := remote.ReadManifest(filepath.Join(shards, "db.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Parent != parent.Key() || len(man.Shards) != 2 || man.Sequences != parent.Len() {
		t.Fatalf("manifest parent %s with %d shards over %d sequences, want %s, 2, %d",
			man.Parent, len(man.Shards), man.Sequences, parent.Key(), parent.Len())
	}
	for i, sh := range man.Shards {
		shard, err := heterosw.OpenIndexFile(filepath.Join(shards, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		if shard.Key() != sh.Key || shard.Len() != sh.Sequences {
			t.Errorf("shard %d: key %s with %d sequences, manifest says %s with %d",
				i, shard.Key(), shard.Len(), sh.Key, sh.Sequences)
		}
		for j, pi := range sh.ParentIndex {
			if got, want := shard.Seq(j).String(), parent.Seq(pi).String(); got != want {
				t.Fatalf("shard %d sequence %d is not parent sequence %d", i, j, pi)
			}
		}
	}
}
