package heterosw

// Cross-module integration tests: full pipelines through the public API,
// persisting data through FASTA, comparing searches against the pairwise
// oracle, and exercising every variant label and planner input end to end
// on one workload.

import (
	"math/rand"
	"path/filepath"
	"testing"

	"heterosw/internal/stats"
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

	loadedSeqs, err := ReadFASTAFile(dbPath, "protein")
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(loadedSeqs)
	if err != nil {
		t.Fatal(err)
	}
	loadedQs, err := ReadFASTAFile(qPath, "protein")
	if err != nil {
		t.Fatal(err)
	}
	query := loadedQs[3] // 375 aa

	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xeon, err := cl.Search(query, ReportOptions{EValues: true})
	if err != nil {
		t.Fatal(err)
	}

	// The planted query survives the FASTA round trip and is its own top
	// hit with an overwhelming E-value.
	if xeon.Hits[0].ID != query.ID() {
		t.Fatalf("top hit %q, want %q", xeon.Hits[0].ID, query.ID())
	}
	all, err := cl.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	sig := xeon.Significance
	if m, err := stats.FitEValues(scoreList(t, db, all), 0); err != nil || sig == nil || m.String() != sig.String() {
		t.Fatalf("Significance %v, want the fit over the full score list (%v, %v)", sig, m, err)
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
		scores := scoreList(t, db, res)
		if want == nil {
			want = scores
			return
		}
		for i := range want {
			if scores[i] != want[i] {
				t.Fatalf("%s: score %d = %d, want %d", label, i, scores[i], want[i])
			}
		}
	}
	for _, v := range Variants() {
		check(v, Options{Variant: v})
	}
}
