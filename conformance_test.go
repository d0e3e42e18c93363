package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"heterosw/internal/datagen"
	"heterosw/internal/vec"
)

// The cross-path conformance harness: a FASTA-loaded database and a
// .swdb-loaded database must be indistinguishable through every entry
// point — Cluster.Search, SearchBatch, SearchScheduled, Stream.Submit and
// POST /search — for every kernel variant, the intrinsic ones with their
// precision ladder climbing on a homolog-rich corpus.
// Byte-identical here means the canonical JSON serialisations of the
// results are equal after zeroing host wall-clock fields (the only
// nondeterministic outputs); scores, hit order, alignments, E-values,
// simulated timing and per-backend accounting all participate.

// confDBSeqs is big enough for the Gumbel significance fit ("a few dozen
// sequences") and small enough that the full variant sweep stays fast.
const confDBSeqs = 96

// confLongSeqs subjects of some 4,400 residues join the corpus for the
// long-path leg: over the long-sequence threshold, so they leave the lane
// groups for the striped kernel and the .swdb carries intra shapes.
const confLongSeqs = 3

// confCorpus selects a variation of the conformance corpus.
type confCorpus int

const (
	confPlain confCorpus = iota
	// confWithLong adds the confLongSeqs long subjects.
	confWithLong
	// confHomologRich turns every third subject into a near-copy of the
	// planted query's donor, so that query saturates a third of the byte
	// lanes and the ladder's re-packed 16-bit rung — whole escalation
	// groups and under-filled ones, on every backend and chunk — takes
	// part in whatever the leg compares.
	confHomologRich
)

// confSetup writes the shared conformance corpus once per test: a FASTA
// file, the .swdb index built from it, and two queries (one a planted
// fragment of a database sequence, one unrelated).
func confSetup(t *testing.T, corpus confCorpus) (fastaPath, swdbPath string, queries []Sequence) {
	t.Helper()
	dir := t.TempDir()
	seqs := wrapSeqs(datagen.Generate(datagen.Config{
		Sequences: confDBSeqs, Seed: 4242, MeanLen: 90, SigmaLog: 0.5, MaxLen: 4000,
	}))
	donor := seqs[confDBSeqs/2]
	if corpus == confHomologRich {
		const letters = "ARNDCQEGHILKMFPSTWYV"
		for i := 1; i < len(seqs); i += 3 {
			copyOf := []byte(donor.String())
			for pos := i % 9; pos < len(copyOf); pos += 9 {
				copyOf[pos] = letters[(pos+i)%len(letters)]
			}
			seqs[i] = NewSequence(seqs[i].ID(), string(copyOf))
		}
	}
	if corpus == confWithLong {
		tail := wrapSeqs(datagen.Generate(datagen.Config{
			Sequences: confLongSeqs, Seed: 4243, MeanLen: 4400, SigmaLog: 0.05, MaxLen: 6000,
		}))
		for _, s := range tail {
			if s.Len() <= 3072 {
				t.Fatalf("long-path subject of %d residues stays in the lane groups", s.Len())
			}
		}
		seqs = append(seqs, tail...)
	}
	fastaPath = filepath.Join(dir, "conf.fasta")
	if err := WriteFASTAFile(fastaPath, seqs); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	swdbPath = filepath.Join(dir, "conf.swdb")
	if err := WriteIndexFile(swdbPath, db); err != nil {
		t.Fatal(err)
	}
	// A fragment of a real subject guarantees a strong alignment; the
	// second query exercises the unrelated-noise path.
	frag := donor.String()
	if len(frag) > 64 {
		frag = frag[:64]
	}
	queries = []Sequence{
		NewSequence("planted", frag),
		NewSequence("random", "MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF"),
	}
	if corpus == confHomologRich {
		res, err := db.Search(queries[0], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflows8 < confDBSeqs/3 {
			t.Fatalf("homolog-rich corpus: %d byte lanes escalate, want a third of %d", res.Overflows8, confDBSeqs)
		}
	}
	return fastaPath, swdbPath, queries
}

// canonResult strips the host wall-clock fields — the only legitimately
// machine-dependent outputs — and serialises the rest.
func canonResult(t *testing.T, res *ClusterResult) []byte {
	t.Helper()
	c := *res
	c.WallSeconds, c.WallGCUPS = 0, 0
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// confEntryPoints runs one (cluster, queries, report) tuple through every
// serving surface and returns the canonical bytes per entry point, in a
// fixed order. The cluster is closed afterwards.
func confEntryPoints(t *testing.T, cl *Cluster, queries []Sequence, rep ReportOptions) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, []byte("\n")) }

	// Cluster.Search, one call per query.
	var direct [][]byte
	for _, q := range queries {
		res, err := cl.Search(q, rep)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		direct = append(direct, canonResult(t, res))
	}
	out["Search"] = join(direct...)

	// SearchBatch over the whole query list.
	batch, err := cl.SearchBatch(queries, rep)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	var batched [][]byte
	for _, res := range batch {
		batched = append(batched, canonResult(t, res))
	}
	out["SearchBatch"] = join(batched...)

	// SearchScheduled through the serving scheduler.
	var scheduled [][]byte
	for _, q := range queries {
		res, err := cl.SearchScheduled(context.Background(), q, rep)
		if err != nil {
			t.Fatalf("SearchScheduled: %v", err)
		}
		scheduled = append(scheduled, canonResult(t, res))
	}
	out["SearchScheduled"] = join(scheduled...)

	// Stream.Submit with ordered delivery.
	st := cl.NewStream(context.Background())
	for _, q := range queries {
		if err := st.Submit(q, rep); err != nil {
			t.Fatalf("Stream.Submit: %v", err)
		}
	}
	st.Close()
	streamed := make([][]byte, 0, len(queries))
	for sr := range st.Results() {
		if sr.Err != nil {
			t.Fatalf("stream result %d: %v", sr.Index, sr.Err)
		}
		streamed = append(streamed, canonResult(t, sr.Result))
	}
	if len(streamed) != len(queries) {
		t.Fatalf("stream delivered %d results for %d queries", len(streamed), len(queries))
	}
	out["Stream"] = join(streamed...)

	// POST /search: compare the canonical HTTP response bodies.
	ts := httptest.NewServer(NewHTTPHandler(cl))
	var http [][]byte
	for _, q := range queries {
		resp, body := postJSON(t, ts.URL+"/search", map[string]any{
			"id":       q.ID(),
			"residues": q.String(),
			"top_k":    confTopK(rep),
			"align":    rep.Alignments,
			"evalue":   rep.EValues,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("POST /search: status %d: %s", resp.StatusCode, body)
		}
		var sr SearchJSON
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("POST /search body: %v", err)
		}
		sr.WallSeconds = 0
		raw, err := json.Marshal(&sr)
		if err != nil {
			t.Fatal(err)
		}
		http = append(http, raw)
	}
	ts.Close()
	out["HTTP"] = join(http...)

	cl.CloseNow()
	return out
}

// confTopK mirrors what the HTTP layer would resolve for the library-side
// report, so both surfaces request the same K.
func confTopK(rep ReportOptions) int {
	if rep.TopK > 0 {
		return rep.TopK
	}
	return defaultReportHits
}

// TestConformanceFASTAvsIndex is the harness table: every kernel variant
// (the intrinsic ones also on the homolog-rich corpus), the three
// distributions and the reporting phases, each asserted byte-identical
// between the FASTA load path and the .swdb load path on all five entry
// points.
func TestConformanceFASTAvsIndex(t *testing.T) {
	type confCase struct {
		name   string
		opts   ClusterOptions
		rep    ReportOptions
		corpus confCorpus
	}
	cases := []confCase{
		{"scalar-QP", ClusterOptions{Options: Options{Variant: VariantNoVecQP}}, ReportOptions{TopK: 5}, confPlain},
		{"scalar-SP", ClusterOptions{Options: Options{Variant: VariantNoVecSP}}, ReportOptions{TopK: 5}, confPlain},
		{"simd-QP", ClusterOptions{Options: Options{Variant: VariantGuidedQP}}, ReportOptions{TopK: 5}, confPlain},
		{"simd-SP", ClusterOptions{Options: Options{Variant: VariantGuidedSP}}, ReportOptions{TopK: 5}, confPlain},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}, confPlain},
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}, confPlain},
		{"ladder-QP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}, confHomologRich},
		{"ladder-SP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}, confHomologRich},
		{"dynamic-aligned", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true}, confPlain},
		{"guided-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "guided"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}, confPlain},
		// The long subjects take the 16-bit striped pass beside byte-lane
		// groups.
		{"long-path", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5}, confWithLong},
		{"three-device", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Devices: []DeviceKind{DeviceXeon, DevicePhi, DevicePhi}},
			ReportOptions{TopK: 5}, confPlain},
	}

	fastaPath, swdbPath, queries := confSetup(t, confPlain)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fastaPath, swdbPath, wantSeqs := fastaPath, swdbPath, confDBSeqs
			if tc.corpus != confPlain {
				fastaPath, swdbPath, _ = confSetup(t, tc.corpus)
			}
			if tc.corpus == confWithLong {
				wantSeqs += confLongSeqs
			}
			results := make(map[string]map[string][]byte, 2)
			for _, load := range []struct{ kind, path string }{
				{"fasta", fastaPath},
				{"swdb", swdbPath},
			} {
				db, err := LoadDatabaseFile(load.path)
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				if db.Len() != wantSeqs {
					t.Fatalf("%s: %d sequences, want %d", load.kind, db.Len(), wantSeqs)
				}
				cl, err := NewCluster(db, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				results[load.kind] = confEntryPoints(t, cl, queries, tc.rep)
			}
			for _, entry := range []string{"Search", "SearchBatch", "SearchScheduled", "Stream", "HTTP"} {
				f, s := results["fasta"][entry], results["swdb"][entry]
				if f == nil || s == nil {
					t.Fatalf("%s: missing surface output", entry)
				}
				if !bytes.Equal(f, s) {
					t.Errorf("%s: FASTA and swdb results diverge\n--- fasta ---\n%s\n--- swdb ---\n%s",
						entry, truncate(f), truncate(s))
				}
			}
		})
	}
}

// TestConformanceNativeVsPortable is the cross-backend leg of the same
// harness: on hosts where internal/vec selected a native tier, every result
// served off the native column kernels must be byte-identical to the same
// search under every tier below it — AVX2's vpshufb byte lookup where the
// host runs VBMI's vpermb, and the portable pure-Go loops — across the
// plain variants, the ladder climbing on the homolog-rich corpus and full
// reporting, on all five entry points. Skipped (vacuous) where the portable
// backend is the only one.
func TestConformanceNativeVsPortable(t *testing.T) {
	if !vec.Native() {
		t.Skipf("vec backend is %q; native vs portable conformance is vacuous", vec.Backend())
	}
	tiers := vec.Tiers()
	top := tiers[len(tiers)-1]
	plainPath, _, queries := confSetup(t, confPlain)
	homologPath, _, _ := confSetup(t, confHomologRich)

	cases := []struct {
		name      string
		opts      ClusterOptions
		rep       ReportOptions
		fastaPath string
	}{
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}, plainPath},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}, plainPath},
		{"simd-SP", ClusterOptions{Options: Options{Variant: VariantGuidedSP}}, ReportOptions{TopK: 5}, plainPath},
		{"ladder-SP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}, homologPath},
		{"ladder-QP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}, homologPath},
		{"aligned-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}, plainPath},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := make(map[vec.Tier]map[string][]byte, len(tiers))
			for _, tr := range tiers {
				func() {
					defer vec.CapTier(vec.CapTier(tr))
					db, err := LoadDatabaseFile(tc.fastaPath)
					if err != nil {
						t.Fatalf("%v: %v", tr, err)
					}
					cl, err := NewCluster(db, tc.opts)
					if err != nil {
						t.Fatalf("%v: %v", tr, err)
					}
					results[tr] = confEntryPoints(t, cl, queries, tc.rep)
				}()
			}
			for _, entry := range []string{"Search", "SearchBatch", "SearchScheduled", "Stream", "HTTP"} {
				for _, tr := range tiers[:len(tiers)-1] {
					n, p := results[top][entry], results[tr][entry]
					if n == nil || p == nil {
						t.Fatalf("%s: missing surface output", entry)
					}
					if !bytes.Equal(n, p) {
						t.Errorf("%s: %v and %v results diverge\n--- %v ---\n%s\n--- %v ---\n%s",
							entry, top, tr, top, truncate(n), tr, truncate(p))
					}
				}
			}
		})
	}
}

// confDNASetup mirrors confSetup for the nucleotide alphabet: a seeded
// synthetic DNA corpus (datagen only emits protein) written as FASTA and
// as a .swdb index, plus a planted-fragment query and an unrelated one.
func confDNASetup(t *testing.T) (fastaPath, swdbPath string, queries []Sequence) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7744))
	const bases = "ACGT"
	randDNA := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = bases[rng.Intn(4)]
		}
		return string(b)
	}
	seqs := make([]Sequence, confDBSeqs)
	for i := range seqs {
		seqs[i] = NewDNASequence(fmt.Sprintf("cd%02d", i), randDNA(60+rng.Intn(240)))
	}
	// A couple of soft-masked and ambiguous subjects keep the encoder's
	// lowercase and N paths inside the conformance surface.
	low := []byte(seqs[3].String())
	for i := 10; i < len(low) && i < 40; i++ {
		low[i] += 'a' - 'A'
	}
	seqs[3] = NewDNASequence(seqs[3].ID(), string(low))
	amb := []byte(seqs[9].String())
	amb[5], amb[15], amb[25] = 'N', 'R', 'Y'
	seqs[9] = NewDNASequence(seqs[9].ID(), string(amb))

	fastaPath = filepath.Join(dir, "conf_dna.fasta")
	if err := WriteFASTAFile(fastaPath, seqs); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	swdbPath = filepath.Join(dir, "conf_dna.swdb")
	if err := WriteIndexFile(swdbPath, db); err != nil {
		t.Fatal(err)
	}
	donor := seqs[confDBSeqs/2].String()
	if len(donor) > 64 {
		donor = donor[:64]
	}
	queries = []Sequence{
		NewDNASequence("planted", donor),
		NewDNASequence("random", randDNA(72)),
	}
	return fastaPath, swdbPath, queries
}

// TestConformanceDNAFASTAvsIndex extends the harness to the DNA alphabet:
// a nucleotide FASTA parsed under IUPAC-DNA and the .swdb built from it
// (which records the alphabet in its header) must be indistinguishable on
// every entry point, under the NUC match/mismatch matrix the cluster
// selects by default for DNA databases.
func TestConformanceDNAFASTAvsIndex(t *testing.T) {
	fastaPath, swdbPath, queries := confDNASetup(t)

	cases := []struct {
		name string
		opts ClusterOptions
		rep  ReportOptions
	}{
		{"scalar-SP", ClusterOptions{Options: Options{Variant: VariantNoVecSP}}, ReportOptions{TopK: 5}},
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}},
		{"dynamic-aligned-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := make(map[string]map[string][]byte, 2)
			for _, load := range []struct{ kind, path string }{
				{"fasta", fastaPath},
				{"swdb", swdbPath},
			} {
				// LoadDNADatabaseFile forces the DNA alphabet for the FASTA
				// text; the .swdb path must recover it from the header alone.
				var (
					db  *Database
					err error
				)
				if load.kind == "fasta" {
					db, err = LoadDNADatabaseFile(load.path)
				} else {
					db, err = LoadDatabaseFile(load.path)
				}
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				if db.Alphabet() != "dna" {
					t.Fatalf("%s: alphabet %q, want dna", load.kind, db.Alphabet())
				}
				cl, err := NewCluster(db, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				results[load.kind] = confEntryPoints(t, cl, queries, tc.rep)
			}
			for _, entry := range []string{"Search", "SearchBatch", "SearchScheduled", "Stream", "HTTP"} {
				f, s := results["fasta"][entry], results["swdb"][entry]
				if f == nil || s == nil {
					t.Fatalf("%s: missing surface output", entry)
				}
				if !bytes.Equal(f, s) {
					t.Errorf("%s: FASTA and swdb results diverge\n--- fasta ---\n%s\n--- swdb ---\n%s",
						entry, truncate(f), truncate(s))
				}
			}
		})
	}
}

func truncate(b []byte) string {
	const lim = 1200
	if len(b) <= lim {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d bytes)", b[:lim], len(b))
}
