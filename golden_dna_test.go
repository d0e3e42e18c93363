package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// The genomics golden tests pin the generalised alphabet layer end to end:
// a nucleotide match/mismatch search over a curated DNA mini-database, and
// a six-frame translated search of a DNA query against the protein golden
// database — each across the library (Cluster.Search/SearchTranslated),
// the HTTP front end and the swsearch output formats (blast report, SAM,
// TSV). Regenerate with go test -run TestGolden -update .

const goldenDNATopK = 5

func goldenDNASetup(t *testing.T) (*Database, Sequence, *Cluster) {
	t.Helper()
	qs, err := ReadFASTAFile("testdata/golden_dna_query.fasta", "dna")
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := ReadFASTAFile("testdata/golden_dna_db.fasta", "dna")
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if db.Alphabet() != "dna" {
		t.Fatalf("database alphabet %q, want dna", db.Alphabet())
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

// TestGoldenDNASearch pins the nucleotide match/mismatch search (NUC
// matrix by default) through the library surface, plus the .swdb index
// round trip reproducing it byte for byte.
func TestGoldenDNASearch(t *testing.T) {
	db, query, cl := goldenDNASetup(t)
	rep := ReportOptions{Alignments: true, EValues: true, TopK: goldenDNATopK}
	res, err := cl.Search(query, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != goldenDNATopK {
		t.Fatalf("%d hits, want %d", len(res.Hits), goldenDNATopK)
	}
	checkGoldenFileAt(t, "Cluster.Search[dna]", goldenFromResult(t, query, db, res), "testdata/golden_dna.json")

	var buf bytes.Buffer
	if err := WriteFormat(&buf, "blast", query, db, res, 60); err != nil {
		t.Fatal(err)
	}
	checkGoldenText(t, "WriteFormat[dna,blast]", buf.Bytes(), "testdata/golden_dna_report.txt")

	buf.Reset()
	if err := WriteFormat(&buf, "tsv", query, db, res, 60); err != nil {
		t.Fatal(err)
	}
	checkGoldenText(t, "WriteFormat[dna,tsv]", buf.Bytes(), "testdata/golden_dna.tsv")

	// The .swdb round trip must restore the DNA alphabet and reproduce
	// the FASTA-loaded pipeline exactly.
	swdb := t.TempDir() + "/golden_dna.swdb"
	if err := WriteIndexFile(swdb, db); err != nil {
		t.Fatal(err)
	}
	idb, err := LoadDatabaseFile(swdb, "protein")
	if err != nil {
		t.Fatal(err)
	}
	if idb.Alphabet() != "dna" {
		t.Fatalf("swdb alphabet %q, want dna", idb.Alphabet())
	}
	icl, err := NewCluster(idb, ClusterOptions{
		Devices: []DeviceKind{DeviceXeon, DevicePhi},
		Dist:    "dynamic",
	})
	if err != nil {
		t.Fatal(err)
	}
	ires, err := icl.Search(query, rep)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		return
	}
	checkGoldenFileAt(t, "swdb Cluster.Search[dna]", goldenFromResult(t, query, idb, ires), "testdata/golden_dna.json")
}

// TestGoldenDNAHTTP pins the HTTP surface over the DNA cluster: the JSON
// response must match the library pin, and the tsv format the TSV pin.
func TestGoldenDNAHTTP(t *testing.T) {
	db, query, cl := goldenDNASetup(t)
	ts := httptest.NewServer(NewHTTPHandler(cl))
	t.Cleanup(func() { ts.Close(); cl.CloseNow() })

	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"id":       query.ID(),
		"residues": query.String(),
		"top_k":    goldenDNATopK,
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
	if *updateGolden {
		t.Skip("golden files are regenerated from the library path")
	}
	checkGoldenFileAt(t, "HTTP /search[dna]", goldenFromJSON(t, query, db, sr), "testdata/golden_dna.json")

	resp, body = postJSON(t, ts.URL+"/search", map[string]any{
		"id":       query.ID(),
		"residues": query.String(),
		"top_k":    goldenDNATopK,
		"evalue":   true,
		"format":   "tsv",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("tsv status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("tsv content type %q", ct)
	}
	checkGoldenText(t, "HTTP /search[dna,tsv]", body, "testdata/golden_dna.tsv")
}

// goldenBackTranslate renders a protein as DNA through one fixed codon per
// amino acid, so a translated search of the result reproduces the protein
// search in frame +1.
func goldenBackTranslate(t *testing.T, protein string) string {
	t.Helper()
	codons := map[byte]string{
		'A': "GCT", 'R': "CGT", 'N': "AAT", 'D': "GAT", 'C': "TGT",
		'Q': "CAA", 'E': "GAA", 'G': "GGT", 'H': "CAT", 'I': "ATT",
		'L': "CTG", 'K': "AAA", 'M': "ATG", 'F': "TTT", 'P': "CCT",
		'S': "TCT", 'T': "ACT", 'W': "TGG", 'Y': "TAT", 'V': "GTT",
	}
	var sb strings.Builder
	for i := 0; i < len(protein); i++ {
		c, ok := codons[protein[i]]
		if !ok {
			t.Fatalf("no codon for %q", protein[i])
		}
		sb.WriteString(c)
	}
	return sb.String()
}

// goldenRevComp reverse-complements an ACGT string.
func goldenRevComp(t *testing.T, dna string) string {
	t.Helper()
	comp := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}
	out := make([]byte, len(dna))
	for i := 0; i < len(dna); i++ {
		c, ok := comp[dna[len(dna)-1-i]]
		if !ok {
			t.Fatalf("no complement for %q", dna[len(dna)-1-i])
		}
		out[i] = c
	}
	return string(out)
}

// goldenTranslatedSetup back-translates the protein golden query and
// reverse-complements it, so every pinned hit exercises a reverse reading
// frame with non-trivial DNA coordinate mapping.
func goldenTranslatedSetup(t *testing.T) (*Database, Sequence, *Cluster) {
	t.Helper()
	db, query, cl := goldenSetup(t)
	dna := goldenRevComp(t, goldenBackTranslate(t, query.String()))
	return db, NewDNASequence("G_QUERY_RC", dna), cl
}

// TestGoldenTranslatedSearch pins the six-frame translated search: the
// merged hit list with frames and DNA coordinates (JSON), the blast-style
// report, and the SAM and TSV renderings.
func TestGoldenTranslatedSearch(t *testing.T) {
	db, query, cl := goldenTranslatedSetup(t)
	res, err := cl.Do(context.Background(), Request{Query: query, Translate: true, Report: ReportOptions{Alignments: true, EValues: true, TopK: goldenDNATopK}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != goldenDNATopK {
		t.Fatalf("%d hits, want %d", len(res.Hits), goldenDNATopK)
	}
	for i, h := range res.Hits {
		if h.Frame != -1 {
			t.Fatalf("hit %d frame %+d, want -1 (reverse-complemented frame +1 query)", i, h.Frame)
		}
	}
	checkGoldenFileAt(t, "SearchTranslated", goldenFromResult(t, query, db, res), "testdata/golden_dna_translated.json")

	for _, f := range []struct{ format, path string }{
		{"blast", "testdata/golden_dna_translated_report.txt"},
		{"sam", "testdata/golden_dna_translated.sam"},
		{"tsv", "testdata/golden_dna_translated.tsv"},
	} {
		var buf bytes.Buffer
		if err := WriteFormat(&buf, f.format, query, db, res, 60); err != nil {
			t.Fatal(err)
		}
		checkGoldenText(t, "WriteFormat[translated,"+f.format+"]", buf.Bytes(), f.path)
	}
}

// TestGoldenTranslatedMatchesProtein is the consistency proof behind the
// translated pins: a forward back-translation of the protein golden query
// must reproduce the protein search's scores exactly, with every top hit
// won by frame +1.
func TestGoldenTranslatedMatchesProtein(t *testing.T) {
	_, query, cl := goldenSetup(t)
	pres, err := cl.Search(query, ReportOptions{TopK: goldenDNATopK})
	if err != nil {
		t.Fatal(err)
	}
	dna := NewDNASequence("fwd", goldenBackTranslate(t, query.String()))
	tres, err := cl.Do(context.Background(), Request{Query: dna, Translate: true, Report: ReportOptions{TopK: goldenDNATopK}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pres.Hits {
		p, tr := pres.Hits[i], tres.Hits[i]
		if p.Index != tr.Index || p.Score != tr.Score || tr.Frame != +1 {
			t.Fatalf("hit %d: protein {%d %d} vs translated {%d %d frame %+d}",
				i, p.Index, p.Score, tr.Index, tr.Score, tr.Frame)
		}
	}
}

// TestGoldenTranslatedHTTP pins POST /search with translate=true: the SAM
// rendering must be byte-identical to the library's, and the JSON response
// must carry frames and DNA coordinates.
func TestGoldenTranslatedHTTP(t *testing.T) {
	_, query, cl := goldenTranslatedSetup(t)
	ts := httptest.NewServer(NewHTTPHandler(cl))
	t.Cleanup(func() { ts.Close(); cl.CloseNow() })

	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"id":        query.ID(),
		"residues":  query.String(),
		"top_k":     goldenDNATopK,
		"evalue":    true,
		"translate": true,
		"format":    "sam",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if *updateGolden {
		t.Skip("golden files are regenerated from the library path")
	}
	checkGoldenText(t, "HTTP /search[translate,sam]", body, "testdata/golden_dna_translated.sam")

	resp, body = postJSON(t, ts.URL+"/search", map[string]any{
		"id":        query.ID(),
		"residues":  query.String(),
		"top_k":     goldenDNATopK,
		"align":     true,
		"evalue":    true,
		"translate": true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr searchJSON
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	for i, h := range sr.Hits {
		if h.Frame != -1 || h.Alignment == nil || h.Alignment.QueryDNAEnd == 0 {
			t.Fatalf("HTTP translated hit %d lacks frame/DNA coords: %+v", i, h)
		}
	}
}
