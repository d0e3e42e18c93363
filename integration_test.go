package heterosw

// Cross-module integration tests: full pipelines through the public API,
// persisting data through FASTA, comparing searches against the pairwise
// oracle, and exercising every variant label and planner input end to end
// on one workload.

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestIntegrationFullPipeline runs the complete user journey: generate ->
// persist -> reload -> search -> significance -> alignment of the top hit.
// (Both devices' lane geometries are pinned below the API, by
// internal/core's ladder tests over the Xeon and Phi models.)
func TestIntegrationFullPipeline(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.fasta")
	qPath := filepath.Join(dir, "q.fasta")

	orig, queries := SyntheticSwissProt(0.001, true)
	seqs := make([]Sequence, orig.Len())
	for i := range seqs {
		seqs[i] = orig.Seq(i)
	}
	if err := WriteFASTAFile(dbPath, seqs); err != nil {
		t.Fatal(err)
	}
	if err := WriteFASTAFile(qPath, queries); err != nil {
		t.Fatal(err)
	}

	loadedSeqs, err := ReadFASTAFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(loadedSeqs)
	if err != nil {
		t.Fatal(err)
	}
	loadedQs, err := ReadFASTAFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	query := loadedQs[3] // 375 aa

	xeon, err := searchDB(db, query, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The planted query survives the FASTA round trip and is its own top
	// hit with an overwhelming E-value.
	if xeon.Hits[0].ID != query.ID() {
		t.Fatalf("top hit %q, want %q", xeon.Hits[0].ID, query.ID())
	}
	sig, err := xeon.FitSignificance(0)
	if err != nil {
		t.Fatal(err)
	}
	if e := sig.EValue(xeon.Hits[0].Score); e > 1e-9 {
		t.Fatalf("self-hit EValue %v", e)
	}

	// Pairwise alignment of the top hit is a perfect self-match.
	al, err := Align(query, db.Seq(xeon.Hits[0].Index), AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if al.Score() != xeon.Hits[0].Score {
		t.Fatalf("pairwise score %d != search score %d", al.Score(), xeon.Hits[0].Score)
	}
	if al.Identities() != query.Len() {
		t.Fatalf("self alignment identities %d, want %d", al.Identities(), query.Len())
	}
}

// TestIntegrationConfigurationMatrix cross-checks score invariance across
// the configuration space on one random workload: every variant label must
// agree.
func TestIntegrationConfigurationMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	letters := "ARNDCQEGHILKMFPSTWYV"
	seqs := make([]Sequence, 48)
	for i := range seqs {
		n := rng.Intn(250) + 1
		if i == 7 {
			n = 3200 // exercise long-sequence routing
		}
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = letters[rng.Intn(len(letters))]
		}
		seqs[i] = NewSequence("s", string(buf))
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	qb := make([]byte, 90)
	for j := range qb {
		qb[j] = letters[rng.Intn(len(qb))%20]
	}
	query := NewSequence("q", string(qb))

	var want []int32
	check := func(label string, opt Options) {
		t.Helper()
		res, err := searchDB(db, query, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want == nil {
			want = res.Scores
			return
		}
		for i := range want {
			if res.Scores[i] != want[i] {
				t.Fatalf("%s: score %d = %d, want %d", label, i, res.Scores[i], want[i])
			}
		}
	}
	for _, v := range Variants() {
		check(v, Options{Variant: v})
	}
}
