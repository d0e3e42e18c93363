package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"heterosw/internal/datagen"
	"heterosw/internal/submat"
	"heterosw/internal/vec"
)

// The cross-path conformance harness: a FASTA-loaded database and a
// .swdb-loaded database must be indistinguishable through every door —
// Cluster.Search, Do, DoBatch and POST /search — under every
// kernel variant label, with the precision ladder climbing on a
// homolog-rich corpus, and for translated and custom-matrix requests;
// within one load path every library door must answer the same bytes; and
// configurations that differ only in what the planner reads (the variant,
// the roster) must answer the same bytes too.
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
		res, err := searchDB(db, queries[0], Options{})
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

// confDoors lists the doors confEntryPoints drives, in a fixed order.
var confDoors = []string{"Search", "Do", "DoBatch", "HTTP"}

// confMatrix is the custom-matrix legs' request-scoped matrix: BLOSUM50 in
// NCBI text, scoring differently from the cluster's BLOSUM62.
var confMatrix = submat.Format(submat.BLOSUM50)

// confRequests builds one request per query. A translated request searches
// the query back-translated to DNA (one codon per standard residue), so its
// frame +1 is the protein query itself.
func confRequests(t *testing.T, queries []Sequence, rep ReportOptions, matrix string, translated bool) []Request {
	t.Helper()
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		if translated {
			standard := strings.Map(func(r rune) rune {
				if strings.ContainsRune("ARNDCQEGHILKMFPSTWYV", r) {
					return r
				}
				return -1
			}, q.String())
			q = NewDNASequence(q.ID(), goldenBackTranslate(t, standard))
		}
		reqs[i] = Request{Query: q, Matrix: matrix, Translate: translated, Report: rep}
	}
	return reqs
}

// confEntryPoints runs one (cluster, requests) tuple through every door
// and returns the canonical bytes per door. Search takes neither a matrix
// nor a translation, so it runs direct requests only. Every library door
// must agree with Do byte for byte: they share one validation and one
// executor. The cluster is closed afterwards.
func confEntryPoints(t *testing.T, cl *Cluster, reqs []Request) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, []byte("\n")) }
	ctx := context.Background()

	// Cluster.Search, one call per direct request: a scheduler slot that
	// neither joins nor caches.
	if reqs[0].Matrix == "" && !reqs[0].Translate {
		var direct [][]byte
		for _, req := range reqs {
			res, err := cl.Search(req.Query, req.Report)
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			direct = append(direct, canonResult(t, res))
		}
		out["Search"] = join(direct...)
	}

	// Do, one request at a time through the serving scheduler.
	var scheduled [][]byte
	for _, req := range reqs {
		res, err := cl.Do(ctx, req)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		scheduled = append(scheduled, canonResult(t, res))
	}
	out["Do"] = join(scheduled...)

	// DoBatch over the whole request list.
	batch, err := cl.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	var batched [][]byte
	for _, res := range batch {
		batched = append(batched, canonResult(t, res))
	}
	out["DoBatch"] = join(batched...)

	// POST /search: compare the canonical HTTP response bodies.
	ts := httptest.NewServer(NewHTTPHandler(cl))
	var http [][]byte
	for _, req := range reqs {
		resp, body := postJSON(t, ts.URL+"/search", map[string]any{
			"id":        req.Query.ID(),
			"residues":  req.Query.String(),
			"top_k":     confTopK(req.Report),
			"align":     req.Report.Alignments,
			"evalue":    req.Report.EValues,
			"matrix":    req.Matrix,
			"translate": req.Translate,
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

	for _, door := range []string{"Search", "DoBatch"} {
		if got, ok := out[door]; ok && !bytes.Equal(got, out["Do"]) {
			t.Errorf("%s and Do answer differently\n--- %s ---\n%s\n--- Do ---\n%s",
				door, door, truncate(got), truncate(out["Do"]))
		}
	}
	cl.CloseNow()
	return out
}

// confCompare asserts two load paths' (or tiers') door outputs identical,
// door by door.
func confCompare(t *testing.T, a, b map[string][]byte, aName, bName string) {
	t.Helper()
	for _, door := range confDoors {
		x, y := a[door], b[door]
		if x == nil && y == nil && door == "Search" {
			continue // a matrix or translated leg
		}
		if x == nil || y == nil {
			t.Fatalf("%s: missing door output", door)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s: %s and %s results diverge\n--- %s ---\n%s\n--- %s ---\n%s",
				door, aName, bName, aName, truncate(x), bName, truncate(y))
		}
	}
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
// label (the intrinsic ones also on the homolog-rich corpus), the three
// distributions, the reporting phases, and translated and custom-matrix
// requests, each asserted byte-identical between the FASTA load path and
// the .swdb load path on every door. The variant labels and the roster are
// planner inputs that select no kernel, so legs that differ only in them
// are asserted byte-identical to each other as well.
func TestConformanceFASTAvsIndex(t *testing.T) {
	type confCase struct {
		name       string
		opts       ClusterOptions
		rep        ReportOptions
		corpus     confCorpus
		matrix     string
		translated bool
	}
	cases := []confCase{
		{"scalar-QP", ClusterOptions{Options: Options{Variant: VariantNoVecQP}}, ReportOptions{TopK: 5}, confPlain, "", false},
		{"scalar-SP", ClusterOptions{Options: Options{Variant: VariantNoVecSP}}, ReportOptions{TopK: 5}, confPlain, "", false},
		{"simd-QP", ClusterOptions{Options: Options{Variant: VariantGuidedQP}}, ReportOptions{TopK: 5}, confPlain, "", false},
		{"simd-SP", ClusterOptions{Options: Options{Variant: VariantGuidedSP}}, ReportOptions{TopK: 5}, confPlain, "", false},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}, confPlain, "", false},
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}, confPlain, "", false},
		{"ladder-QP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}, confHomologRich, "", false},
		{"ladder-SP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}, confHomologRich, "", false},
		{"dynamic-aligned", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true}, confPlain, "", false},
		{"guided-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "guided"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}, confPlain, "", false},
		// The long subjects take the 16-bit striped pass beside byte-lane
		// groups.
		{"long-path", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5}, confWithLong, "", false},
		{"three-device", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Devices: []DeviceKind{DeviceXeon, DevicePhi, DevicePhi}},
			ReportOptions{TopK: 5}, confPlain, "", false},
		{"translated", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}, confPlain, "", true},
		{"custom-matrix", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}, confPlain, confMatrix, false},
		{"translated-matrix", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}},
			ReportOptions{TopK: 5, Alignments: true}, confPlain, confMatrix, true},
	}

	fastaPath, swdbPath, queries := confSetup(t, confPlain)

	// first holds, per request shape, the first leg that ran it and what
	// it answered over the FASTA load path.
	type shape struct {
		corpus     confCorpus
		rep        ReportOptions
		matrix     string
		translated bool
	}
	type leg struct {
		name string
		out  map[string][]byte
	}
	first := make(map[shape]leg)

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
				results[load.kind] = confEntryPoints(t, cl, confRequests(t, queries, tc.rep, tc.matrix, tc.translated))
			}
			confCompare(t, results["fasta"], results["swdb"], "fasta", "swdb")
			key := shape{tc.corpus, tc.rep, tc.matrix, tc.translated}
			if ref, ok := first[key]; ok {
				confCompare(t, ref.out, results["fasta"], ref.name, tc.name)
			} else {
				first[key] = leg{tc.name, results["fasta"]}
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
// reporting, on every door. Each cluster is built under its tier's cap, so
// the comparison also spans lane geometries: the avx2+vbmi cluster packs
// 64-lane byte groups (one zmm), the avx2-capped and portable ones 32.
// Skipped (vacuous) where the portable backend is the only one.
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
					results[tr] = confEntryPoints(t, cl, confRequests(t, queries, tc.rep, "", false))
					// The host model the cluster's engine packs for: one
					// zmm of byte lanes on avx2+vbmi, one ymm otherwise.
					want := map[vec.Tier]int{vec.TierPortable: 32, vec.TierAVX2: 32, vec.TierVBMI: 64}[tr]
					if got := hostWidth().ByteLanes(); got != want {
						t.Fatalf("%v: host packs %d byte lanes, want %d", tr, got, want)
					}
				}()
			}
			for _, tr := range tiers[:len(tiers)-1] {
				confCompare(t, results[top], results[tr], top.String(), tr.String())
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
// selects by default for DNA databases; legs that differ only in the
// variant label must answer the same bytes.
func TestConformanceDNAFASTAvsIndex(t *testing.T) {
	fastaPath, swdbPath, queries := confDNASetup(t)
	var (
		refName string
		ref     map[string][]byte
	)

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
				results[load.kind] = confEntryPoints(t, cl, confRequests(t, queries, tc.rep, "", false))
			}
			confCompare(t, results["fasta"], results["swdb"], "fasta", "swdb")
			if tc.rep == (ReportOptions{TopK: 5}) {
				if ref == nil {
					refName, ref = tc.name, results["fasta"]
				} else {
					confCompare(t, ref, results["fasta"], refName, tc.name)
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
