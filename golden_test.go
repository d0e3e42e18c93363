package heterosw

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"heterosw/internal/seqdb/index"
)

// The golden end-to-end test pins the full two-phase reporting pipeline —
// top hits, scores, CIGARs, coordinates, identities, bit scores and
// E-values over a curated testdata query and mini-database — across all
// three surfaces: the library (Cluster.Search with ReportOptions), the
// HTTP front end (POST /search with align/evalue) and the swsearch -blast
// formatted output (WriteFormat "blast"). Regenerate the expectations with
//
//	go test -run TestGolden -update .
//
// after an intentional output change, and review the diff.

var updateGolden = flag.Bool("update", false, "rewrite the golden files from current output")

const goldenTopK = 5

// goldenHit is one pinned hit; floats are stored to 6 significant digits
// so the file stays readable and insensitive to last-ulp drift.
type goldenHit struct {
	Index        int    `json:"index"`
	ID           string `json:"id"`
	Score        int    `json:"score"`
	Frame        int    `json:"frame,omitempty"`
	CIGAR        string `json:"cigar"`
	QueryStart   int    `json:"query_start"`
	QueryEnd     int    `json:"query_end"`
	SubjectStart int    `json:"subject_start"`
	SubjectEnd   int    `json:"subject_end"`
	QueryDNAFrom int    `json:"query_dna_start,omitempty"`
	QueryDNATo   int    `json:"query_dna_end,omitempty"`
	Identities   int    `json:"identities"`
	Columns      int    `json:"columns"`
	BitScore     string `json:"bit_score"`
	EValue       string `json:"evalue"`
}

type goldenFile struct {
	Query     string      `json:"query"`
	Sequences int         `json:"sequences"`
	Model     string      `json:"model"`
	Hits      []goldenHit `json:"hits"`
}

func sigDigits(v float64) string { return fmt.Sprintf("%.6g", v) }

func goldenSetup(t *testing.T) (*Database, Sequence, *Cluster) {
	t.Helper()
	qs, err := ReadFASTAFile("testdata/golden_query.fasta", "protein")
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := ReadFASTAFile("testdata/golden_db.fasta", "protein")
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(db, ClusterOptions{
		Devices: []DeviceKind{DeviceXeon, DevicePhi},
		Dist:    "dynamic",
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, qs[0], cl
}

func goldenFromResult(t *testing.T, query Sequence, db *Database, res *Result) goldenFile {
	t.Helper()
	if res.Significance == nil {
		t.Fatal("result carries no significance model")
	}
	out := goldenFile{
		Query:     query.ID(),
		Sequences: db.Len(),
		Model:     res.Significance.String(),
	}
	for _, h := range res.Hits {
		if h.Alignment == nil || h.Significance == nil {
			t.Fatalf("hit %s missing decorations: %+v", h.ID, h)
		}
		a := h.Alignment
		out.Hits = append(out.Hits, goldenHit{
			Index: h.Index, ID: h.ID, Score: h.Score, Frame: h.Frame,
			CIGAR:      a.CIGAR,
			QueryStart: a.QueryStart, QueryEnd: a.QueryEnd,
			SubjectStart: a.SubjectStart, SubjectEnd: a.SubjectEnd,
			QueryDNAFrom: a.QueryDNAStart, QueryDNATo: a.QueryDNAEnd,
			Identities: a.Identities, Columns: a.Columns,
			BitScore: sigDigits(h.Significance.BitScore),
			EValue:   sigDigits(h.Significance.EValue),
		})
	}
	return out
}

func goldenFromJSON(t *testing.T, query Sequence, db *Database, sr searchJSON) goldenFile {
	t.Helper()
	if sr.Significance == "" {
		t.Fatal("HTTP response carries no significance model")
	}
	out := goldenFile{Query: query.ID(), Sequences: db.Len(), Model: sr.Significance}
	for _, h := range sr.Hits {
		if h.Alignment == nil || h.BitScore == nil || h.EValue == nil {
			t.Fatalf("HTTP hit %s missing decorations: %+v", h.ID, h)
		}
		a := h.Alignment
		out.Hits = append(out.Hits, goldenHit{
			Index: h.Index, ID: h.ID, Score: h.Score, Frame: h.Frame,
			CIGAR:      a.CIGAR,
			QueryStart: a.QueryStart, QueryEnd: a.QueryEnd,
			SubjectStart: a.SubjectStart, SubjectEnd: a.SubjectEnd,
			QueryDNAFrom: a.QueryDNAStart, QueryDNATo: a.QueryDNAEnd,
			Identities: a.Identities, Columns: a.Columns,
			BitScore: sigDigits(*h.BitScore),
			EValue:   sigDigits(*h.EValue),
		})
	}
	return out
}

func checkGoldenFile(t *testing.T, surface string, got goldenFile) {
	t.Helper()
	checkGoldenFileAt(t, surface, got, "testdata/golden.json")
}

func checkGoldenFileAt(t *testing.T, surface string, got goldenFile, path string) {
	t.Helper()
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test -run TestGolden -update .)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("%s diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", surface, path, raw, want)
	}
}

// checkGoldenText pins raw text output (reports, SAM, TSV) at path.
func checkGoldenText(t *testing.T, surface string, got []byte, path string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test -run TestGolden -update .)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", surface, path, got, want)
	}
}

// TestGoldenClusterSearch pins the library surface and proves the
// traceback phase only ever aligned K sequences.
func TestGoldenClusterSearch(t *testing.T) {
	db, query, cl := goldenSetup(t)
	res, err := cl.Search(query, ReportOptions{Alignments: true, EValues: true, TopK: goldenTopK})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != goldenTopK {
		t.Fatalf("%d hits, want %d", len(res.Hits), goldenTopK)
	}
	checkGoldenFile(t, "Cluster.Search", goldenFromResult(t, query, db, res))

	// The acceptance pin: phase two aligned exactly K sequences, never
	// the 48-sequence database.
	if _, tracebacks, _ := cl.Totals(); tracebacks != goldenTopK {
		t.Fatalf("traceback phase aligned %d sequences, want exactly %d", tracebacks, goldenTopK)
	}
}

// TestGoldenIndexSearch pins the .swdb load path against the same golden
// file: building an index from the golden FASTA (exactly what swindex
// build does), reloading it through the sniffing loader and searching must
// reproduce the FASTA-loaded pipeline's output byte for byte.
func TestGoldenIndexSearch(t *testing.T) {
	db, query, _ := goldenSetup(t)
	swdb := filepath.Join(t.TempDir(), "golden.swdb")
	if err := WriteIndexFile(swdb, db); err != nil {
		t.Fatal(err)
	}
	idb, err := LoadDatabaseFile(swdb, "protein")
	if err != nil {
		t.Fatal(err)
	}
	if !index.SniffFile(swdb) || index.SniffFile("testdata/golden_db.fasta") {
		t.Fatal("index sniffing misclassified a golden input")
	}
	cl, err := NewCluster(idb, ClusterOptions{
		Devices: []DeviceKind{DeviceXeon, DevicePhi},
		Dist:    "dynamic",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(query, ReportOptions{Alignments: true, EValues: true, TopK: goldenTopK})
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		t.Skip("golden files are regenerated from the FASTA path")
	}
	checkGoldenFile(t, "swdb Cluster.Search", goldenFromResult(t, query, idb, res))
}

// TestGoldenHTTPSearch pins the HTTP surface against the same golden
// file: POST /search with align and evalue must return byte-identical
// decorations.
func TestGoldenHTTPSearch(t *testing.T) {
	db, query, cl := goldenSetup(t)
	ts := httptest.NewServer(NewHTTPHandler(cl))
	t.Cleanup(func() { ts.Close(); cl.CloseNow() })

	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"id":       query.ID(),
		"residues": query.String(),
		"top_k":    goldenTopK,
		"align":    true,
		"evalue":   true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr searchJSON
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	if len(sr.Hits) != goldenTopK {
		t.Fatalf("%d hits, want %d", len(sr.Hits), goldenTopK)
	}
	checkGoldenFile(t, "HTTP /search", goldenFromJSON(t, query, db, sr))
}

// TestGoldenReportText pins every output format of the aligned golden
// search byte for byte: "blast" is exactly what swsearch -blast prints,
// "sam" and "tsv" what swsearch -outfmt prints.
func TestGoldenReportText(t *testing.T) {
	db, query, cl := goldenSetup(t)
	res, err := cl.Search(query, ReportOptions{Alignments: true, EValues: true, TopK: goldenTopK})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{
		"blast": "testdata/golden_report.txt",
		"sam":   "testdata/golden.sam",
		"tsv":   "testdata/golden.tsv",
	}
	for _, format := range Formats() {
		var buf bytes.Buffer
		if err := WriteFormat(&buf, format, query, db, res, 60); err != nil {
			t.Fatal(err)
		}
		checkGoldenText(t, "WriteFormat["+format+"]", buf.Bytes(), golden[format])
	}
}
