package main

import (
	"errors"
	"os"
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
// that used to select a modelled device, roster, schedule or kernel
// variant are gone, and so is -align, whose re-alignment ignored
// -matrixfile (-blast prints the search's own tracebacks).
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
		"-device=phi", "-threads=4", "-schedule=static", "-noblocking", "-variant=simd-SP",
		"-align=3",
	} {
		out, err := exec.Command(bin, "-synthetic", "0.001", gone).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("%s: err %v, want flag's exit 2\n%s", gone, err, out)
		}
	}
}

// Zero gap penalties are literal: gaps cost nothing, so WWWWWWWW against
// WWWWGGWWWW aligns all eight tryptophans at BLOSUM62's 11 each, 88,
// across a free two-residue deletion — not 74, the score under the 10/2
// defaults.
func TestZeroGapPenalties(t *testing.T) {
	bin := buildSelf(t)
	dir := t.TempDir()
	db := writeFile(t, dir, "db.fasta", ">subject\nWWWWGGWWWW\n")
	query := writeFile(t, dir, "q.fasta", ">query\nWWWWWWWW\n")
	out, err := exec.Command(bin, "-db", db, "-query", query, "-gapopen", "0", "-gapextend", "0", "-top", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("swsearch: %v\n%s", err, out)
	}
	if want := "   1 subject               88\n"; !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// A negative -top is a bad request on every path: the plain score table
// and the aligned report both exit 1 with the request's error, rather than
// the plain path printing every hit.
func TestNegativeTop(t *testing.T) {
	bin := buildSelf(t)
	db := filepath.Join("..", "..", "testdata", "golden_db.fasta")
	query := filepath.Join("..", "..", "testdata", "golden_query.fasta")
	for _, path := range [][]string{nil, {"-blast"}} {
		args := append([]string{"-db", db, "-query", query, "-top", "-1"}, path...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit 1\n%s", path, err, out)
			continue
		}
		if want := "bad request: negative report TopK -1"; !strings.Contains(string(out), want) {
			t.Errorf("%v: output lacks %q:\n%s", path, want, out)
		}
	}
}

// writeFile writes a fixture into dir and returns its path.
func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The reporting pipeline's shapes — a translated search, a batch rendered
// as BLAST reports, a custom matrix file rendered as TSV — each print the
// exact text below, the BLAST report's timing line aside. The texts were
// captured from the command before its searches moved onto the request
// doors, which must not have changed a byte.
func TestReportShapes(t *testing.T) {
	bin := buildSelf(t)
	dir := t.TempDir()
	db := filepath.Join("..", "..", "testdata", "golden_db.fasta")
	query := filepath.Join("..", "..", "testdata", "golden_query.fasta")
	// The golden query's first 20 residues, one codon each.
	dna := writeFile(t, dir, "dna.fasta", ">dna1 back-translated fragment\nCATGGTCCTTGGGCTAAATATTTTCATTCTCTGCAACATGTTAATCAAATGGGTGAATTT\n")
	batch := writeFile(t, dir, "batch.fasta", ">a\nHGPWAKYFHSLQHVNQMGEFCKNF\n>b\nMKWVTFISLLLLFSSAYSRGVFRR\n")
	matrix := writeFile(t, dir, "match.txt", "# match-only\nM K W V L A\nM 9 -9 -9 -9 -9 -9\nK -9 9 -9 -9 -9 -9\n"+
		"W -9 -9 9 -9 -9 -9\nV -9 -9 -9 9 -9 -9\nL -9 -9 -9 -9 9 -9\nA -9 -9 -9 -9 -9 9\n")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"translate", []string{"-db", db, "-query", dna, "-translate", "-top", "3"}, wantTranslate},
		{"batch-blast", []string{"-db", db, "-query", batch, "-batch", "-blast", "-top", "3"}, wantBatchBlast},
		{"matrixfile", []string{"-db", db, "-query", query, "-matrixfile", matrix, "-outfmt", "tsv", "-top", "3"}, wantMatrixTSV},
	} {
		out, err := exec.Command(bin, tc.args...).Output()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var kept []string
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if !strings.HasPrefix(line, "performance:") {
				kept = append(kept, line)
			}
		}
		if got := strings.Join(kept, ""); got != tc.want {
			t.Errorf("%s: output changed\n--- got ---\n%s--- want ---\n%s", tc.name, got, tc.want)
		}
	}
}

const wantTranslate = `query:    dna1 (60 nt)
database: seqdb: 48 sequences, 5183 residues, max length 175, sorted=true

   #  subject     score frame  identities  cigar
   1  G_HOMOLOG      98    +1  17/19       19M
   2  G_RAND24       54    +1  10/18       18M
   3  G_PARTIAL      52    +1  9/20        20M

> G_HOMOLOG  score=98 frame=+1 query_dna=4..60
  identities=17/19 (89%), query 2..20, subject 2..20
  Query      2 GPWAKYFHSLQHVNQMGEF 20
               |||||| |||||| |||||
  Sbjct      2 GPWAKYSHSLQHVEQMGEF 20

> G_RAND24  score=54 frame=+1 query_dna=4..57
  identities=10/18 (56%), query 2..19, subject 31..48
  Query      2 GPWAKYFHSLQHVNQMGE 19
               |||| |   | | |  ||
  Sbjct     31 GPWASYITKLWHKNFTGE 48

> G_PARTIAL  score=52 frame=+1 query_dna=1..60
  identities=9/20 (45%), query 1..20, subject 67..86
  Query      1 HGPWAKYFHSLQHVNQMGEF 20
               ||| | | |||  |      
  Sbjct     67 HGPQAVYWHSLRMVDEQTSY 86

`

const wantBatchBlast = `query:    a (24 aa)
database: seqdb: 48 sequences, 5183 residues, max length 175, sorted=true

   #  subject     score  identities  cigar
   1  G_HOMOLOG     121  20/23       23M
   2  G_RAND24       54  10/18       18M
   3  G_PARTIAL      53  9/24        24M

> G_HOMOLOG  score=121
  identities=20/23 (87%), query 2..24, subject 2..24
  Query      2 GPWAKYFHSLQHVNQMGEFCKNF 24
               |||||| |||||| |||||| ||
  Sbjct      2 GPWAKYSHSLQHVEQMGEFCRNF 24

> G_RAND24  score=54
  identities=10/18 (56%), query 2..19, subject 31..48
  Query      2 GPWAKYFHSLQHVNQMGE 19
               |||| |   | | |  ||
  Sbjct     31 GPWASYITKLWHKNFTGE 48

> G_PARTIAL  score=53
  identities=9/24 (38%), query 1..24, subject 67..90
  Query      1 HGPWAKYFHSLQHVNQMGEFCKNF 24
               ||| | | |||  |          
  Sbjct     67 HGPQAVYWHSLRMVDEQTSYIHGY 90
======================================================================
query:    b (24 aa)
database: seqdb: 48 sequences, 5183 residues, max length 175, sorted=true

   #  subject    score  identities  cigar
   1  G_RAND37      27  5/23        10M1D12M
   2  G_RAND09      23  3/13        13M
   3  G_RAND24      22  3/8         8M

> G_RAND37  score=27
  identities=5/23 (22%), query 3..24, subject 33..55
  Query      3 WVTFISLLLL-FSSAYSRGVFRR 24
               |   |  |       |  |    
  Sbjct     33 WMKPIAVLIMGYQASYFMGLWAK 55

> G_RAND09  score=23
  identities=3/13 (23%), query 12..24, subject 51..63
  Query     12 LFSSAYSRGVFRR 24
                    |  | |  
  Sbjct     51 VYFASYFHGLFTK 63

> G_RAND24  score=22
  identities=3/8 (38%), query 3..10, subject 33..40
  Query      3 WVTFISLL 10
               |   |  |
  Sbjct     33 WASYITKL 40

`

const wantMatrixTSV = `G_QUERY	G_HOMOLOG	100.00	3	0	0	4	6	4	6	-	-
G_QUERY	G_RAND03	100.00	3	0	0	4	6	1	3	-	-
G_QUERY	G_RAND04	100.00	3	0	0	4	6	89	91	-	-
`
