package heterosw

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"heterosw/internal/stats"
)

func tinyDB(t testing.TB) (*Database, []Sequence) {
	t.Helper()
	seqs := []Sequence{
		NewSequence("s1", "MKWVLAARND"),
		NewSequence("s2", "CCQEGHIL"),
		NewSequence("s3", "MKWVLA"),
		NewSequence("s4", "WYVKMF"),
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	return db, seqs
}

// searchDB runs one plain search of query over db through a fresh local
// cluster configured with opt: Cluster.Search, the direct door.
func searchDB(db *Database, query Sequence, opt Options) (*ClusterResult, error) {
	cl, err := NewCluster(db, ClusterOptions{Options: opt})
	if err != nil {
		return nil, err
	}
	return cl.Search(query)
}

// hitScores rebuilds every subject's score, in database order, from an
// every-hit result (TopK 0 and no reporting phase, as Search(q) and Do
// with the zero ReportOptions return): each database index must appear
// exactly once, so the list is db.Len() long.
func hitScores(db *Database, res *ClusterResult) ([]int32, error) {
	if len(res.Hits) != db.Len() {
		return nil, fmt.Errorf("%d hits, want one per database sequence (%d)", len(res.Hits), db.Len())
	}
	scores := make([]int32, db.Len())
	seen := make([]bool, db.Len())
	for _, h := range res.Hits {
		if h.Index < 0 || h.Index >= db.Len() || seen[h.Index] {
			return nil, fmt.Errorf("hit index %d out of range or repeated", h.Index)
		}
		seen[h.Index] = true
		scores[h.Index] = int32(h.Score)
	}
	return scores, nil
}

// scoreList is hitScores for the test goroutine: a malformed hit list
// fails the test.
func scoreList(t testing.TB, db *Database, res *ClusterResult) []int32 {
	t.Helper()
	scores, err := hitScores(db, res)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

func TestSearchDefaults(t *testing.T) {
	db, _ := tinyDB(t)
	res, err := searchDB(db, NewSequence("q", "MKWVLA"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scores := scoreList(t, db, res); len(scores) != 4 {
		t.Fatalf("%d scores", len(scores))
	}
	// The best hit must be one of the sequences containing MKWVLA.
	if res.Hits[0].ID != "s1" && res.Hits[0].ID != "s3" {
		t.Fatalf("top hit %q", res.Hits[0].ID)
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i].Score > res.Hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
	if res.WallSeconds <= 0 || res.Cells != 6*db.Residues() {
		t.Fatalf("accounting: %+v", res)
	}
}

// The variant is a planner input: every label searches with the same
// ladder and returns the same scores and accounting.
func TestSearchAllVariantsAgree(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLARN")
	var (
		want       *ClusterResult
		wantScores []int32
	)
	for _, v := range Variants() {
		res, err := searchDB(db, q, Options{Variant: v})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		scores := scoreList(t, db, res)
		if want == nil {
			want, wantScores = res, scores
			continue
		}
		for i := range wantScores {
			if scores[i] != wantScores[i] {
				t.Fatalf("%s: score %d differs: %d vs %d", v, i, scores[i], wantScores[i])
			}
		}
		if res.Cells != want.Cells || res.Overflows8 != want.Overflows8 || res.Overflows != want.Overflows {
			t.Fatalf("%s: accounting %+v, %s %+v", v, res.Result, Variants()[0], want.Result)
		}
	}
}

func TestSearchOptionErrors(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLA")
	cases := []Options{
		{Variant: "avx512-madness"},
		{Matrix: "BLOSUM13"},
	}
	for i, opt := range cases {
		if _, err := searchDB(db, q, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
	if _, err := searchDB(db, Sequence{}, Options{}); err == nil {
		t.Error("zero-value query accepted")
	}
	if _, err := NewDatabase([]Sequence{{}}); err == nil {
		t.Error("zero-value database sequence accepted")
	}
}

// A database holds one alphabet: a mix is an error naming the first
// sequence that differs, not a panic.
func TestNewDatabaseMixedAlphabets(t *testing.T) {
	_, err := NewDatabase([]Sequence{
		NewSequence("a", "MKV"),
		NewSequence("b", "WYV"),
		NewDNASequence("c", "ACGT"),
		NewDNASequence("d", "GGCA"),
	})
	if err == nil || !strings.Contains(err.Error(), `"c"`) || strings.Contains(err.Error(), `"d"`) {
		t.Fatalf("mixed alphabets: err = %v, want one naming sequence \"c\"", err)
	}
}

func TestAlignAPI(t *testing.T) {
	a := NewSequence("a", "MKWVLAARND")
	b := NewSequence("b", "GGMKWVLAGG")
	al, err := Align(a, b, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Score(a, b, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if al.Score() != sc {
		t.Fatalf("Align %d != Score %d", al.Score(), sc)
	}
	if al.Identities() < 6 {
		t.Fatalf("identities %d", al.Identities())
	}
	if !strings.Contains(al.CIGAR(), "M") {
		t.Fatalf("CIGAR %q", al.CIGAR())
	}
	aS, aE, bS, bE := al.Coordinates()
	if aE <= aS || bE <= bS {
		t.Fatalf("coordinates %d %d %d %d", aS, aE, bS, bE)
	}
	if al.Format(40) == "" {
		t.Fatal("empty Format")
	}
	if got := al.Format(40); !strings.Contains(got, "A: MKWVLA") {
		t.Fatalf("protein Format lost its letters:\n%s", got)
	}
	// A DNA pair renders in nucleotide letters, decoded under the alphabet
	// of the matrix it was scored with.
	dna := NewDNASequence("d", "ACGTTGCAACGT")
	dal, err := Align(dna, dna, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dal.Format(60); !strings.Contains(got, "A: ACGTTGCAACGT\n") || !strings.Contains(got, "B: ACGTTGCAACGT\n") {
		t.Fatalf("DNA Format:\n%s", got)
	}
	if _, err := Align(Sequence{}, b, AlignOptions{}); err == nil {
		t.Error("zero-value sequence accepted")
	}
	if _, err := Score(a, b, AlignOptions{Matrix: "nope"}); err == nil {
		t.Error("bad matrix accepted")
	}
}

func TestSyntheticSwissProt(t *testing.T) {
	db, queries := SyntheticSwissProt(0.001, true)
	if db.Len() < 500 {
		t.Fatalf("db too small: %d", db.Len())
	}
	if len(queries) != 20 {
		t.Fatalf("%d queries", len(queries))
	}
	lengths := PaperQueryLengths()
	if queries[0].Len() != lengths[0] || queries[19].Len() != lengths[19] {
		t.Fatal("query lengths mismatch")
	}
	// A planted query's top hit must be itself (perfect score).
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(queries[0], ReportOptions{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0].ID != queries[0].ID() {
		t.Fatalf("top hit %q, want planted %q", res.Hits[0].ID, queries[0].ID())
	}
}

func TestFASTARoundTripAPI(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.fasta"
	seqs := []Sequence{NewSequence("a", "ARND"), NewSequence("b", "WWYV")}
	if err := WriteFASTAFile(path, seqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTAFile(path, "protein")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].String() != "ARND" || back[1].ID() != "b" {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := ReadFASTA(strings.NewReader(">x\nMKV\n"), "protein"); err != nil {
		t.Fatal(err)
	}
}

// TestReaderAlphabetNames pins the alphabet argument of the readers and
// the loader: "protein" and "dna" are the names Sequence.Alphabet returns,
// and any other name is an error, for a .swdb index too.
func TestReaderAlphabetNames(t *testing.T) {
	for _, alpha := range []string{"protein", "dna"} {
		seqs, err := ReadFASTA(strings.NewReader(">x\nACGT\n"), alpha)
		if err != nil || len(seqs) != 1 || seqs[0].Alphabet() != alpha {
			t.Fatalf("ReadFASTA(%q): %v %v", alpha, seqs, err)
		}
	}
	dir := t.TempDir()
	fasta, swdb := dir+"/x.fasta", dir+"/x.swdb"
	if err := WriteFASTAFile(fasta, []Sequence{NewDNASequence("a", "ACGT")}); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabaseFile(fasta, "dna")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteIndexFile(swdb, db); err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []string{"rna", "", "DNA", "Protein"} {
		if _, err := ReadFASTA(strings.NewReader(">x\nACGT\n"), alpha); err == nil {
			t.Errorf("ReadFASTA(%q) succeeded", alpha)
		}
		if _, err := ReadFASTAFile(fasta, alpha); err == nil {
			t.Errorf("ReadFASTAFile(%q) succeeded", alpha)
		}
		for _, path := range []string{fasta, swdb} {
			if _, err := LoadDatabaseFile(path, alpha); err == nil {
				t.Errorf("LoadDatabaseFile(%s, %q) succeeded", path, alpha)
			}
		}
	}
}

func TestSequenceBasics(t *testing.T) {
	s := NewSequence("id1", "mkwvla")
	if s.ID() != "id1" || s.Len() != 6 || s.String() != "MKWVLA" {
		t.Fatalf("%q %d %q", s.ID(), s.Len(), s.String())
	}
	sub := s.Slice(1, 4)
	if sub.String() != "KWV" {
		t.Fatalf("slice %q", sub.String())
	}
	var zero Sequence
	if zero.ID() != "" || zero.Len() != 0 || zero.String() != "" || zero.Description() != "" {
		t.Fatal("zero value misbehaves")
	}
}

func TestSignificanceAPI(t *testing.T) {
	db, queries := SyntheticSwissProt(0.002, true)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(queries[4], ReportOptions{EValues: true})
	if err != nil {
		t.Fatal(err)
	}
	sig := res.Significance
	// The model is the one fitted over every subject's score.
	all, err := cl.Search(queries[4])
	if err != nil {
		t.Fatal(err)
	}
	scores := scoreList(t, db, all)
	if m, err := stats.FitEValues(scores, 0); err != nil || sig == nil || m.String() != sig.String() {
		t.Fatalf("Significance %v, want the fit over the full score list (%v, %v)", sig, m, err)
	}
	// The planted self-hit must be overwhelmingly significant.
	if e := sig.EValue(res.Hits[0].Score); e > 1e-6 {
		t.Fatalf("self-hit EValue %v", e)
	}
	// A mid-distribution score is unremarkable.
	mid := int(scores[len(scores)/2])
	if e := sig.EValue(mid); e < 1 {
		t.Fatalf("median score EValue %v, want >> 1", e)
	}
	if sig.BitScore(res.Hits[0].Score) <= sig.BitScore(mid) {
		t.Fatal("bit score ordering broken")
	}
	if sig.PValue(res.Hits[0].Score) > sig.PValue(mid) {
		t.Fatal("p-value ordering broken")
	}
	if sig.String() == "" {
		t.Fatal("empty model description")
	}
}

// The static plan of Algorithm 2's pair derives model-balanced shares
// (internal/model's TestOptimalSharesProperties checks they beat a lopsided
// pinned split).
func TestAutoSplitAPI(t *testing.T) {
	db, queries := SyntheticSwissProt(0.002, true)
	cl, err := NewCluster(db, ClusterOptions{Devices: []DeviceKind{DevicePhi, DeviceXeon}})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := cl.Plan(queries[4].Len())
	if err != nil {
		t.Fatal(err)
	}
	if phi := auto.Devices[0].Share; phi <= 0 || phi >= 1 {
		t.Fatalf("auto split share %v", phi)
	}
}

// Cluster.Plan over a one-device roster is Algorithm 1 on the device
// model: the planner's estimate for that device over the database's
// lengths, pinned by internal/model's plan_golden.json over the same
// synthetic corpus.
func TestClusterPlanEstimates(t *testing.T) {
	db, _ := SyntheticSwissProt(0.01, false)
	raw, err := os.ReadFile("internal/model/testdata/plan_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Estimates []struct {
			Device   DeviceKind `json:"device"`
			QueryLen int        `json:"query_len"`
			Seconds  float64    `json:"seconds"`
		} `json:"estimates"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Estimates) != 6 {
		t.Fatalf("%d golden estimates, want 6", len(golden.Estimates))
	}
	for _, e := range golden.Estimates {
		cl, err := NewCluster(db, ClusterOptions{Devices: []DeviceKind{e.Device}})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cl.Plan(e.QueryLen)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plan.Seconds-e.Seconds) > 1e-12*e.Seconds {
			t.Errorf("%s, %d residues: %v s, golden %v", e.Device, e.QueryLen, plan.Seconds, e.Seconds)
		}
		if want := float64(e.QueryLen) * float64(db.Residues()) / plan.Seconds / 1e9; plan.GCUPS != want {
			t.Errorf("%s: GCUPS %v, want %v", e.Device, plan.GCUPS, want)
		}
		if d := plan.Devices; len(d) != 1 || d[0].Device != e.Device || d[0].Share != 1 {
			t.Errorf("%s: devices %+v", e.Device, d)
		}
		if _, err := cl.Plan(0); err == nil {
			t.Errorf("%s: zero query length accepted", e.Device)
		}
	}
	if _, err := NewCluster(db, ClusterOptions{Devices: []DeviceKind{"gpu"}}); err == nil {
		t.Error("unknown device accepted")
	}
}

// Every search sends the long subject down the one long-path kernel,
// whatever the variant label, and reaches the scalar reference's scores.
// The long subject's score is far over a byte, so the 8-bit escalation
// counter shows the route: the long path starts at 16 bits, where a byte
// lane would escalate. (internal/core's TestEngineRoutesLongSequences
// searches the same input with routing disabled.)
func TestLongPathAPIEquivalence(t *testing.T) {
	long := make([]byte, 3300)
	for i := range long {
		long[i] = "ARNDCQEGHILKMFPSTWYV"[i%20]
	}
	seqs := []Sequence{
		NewSequence("long", string(long)),
		NewSequence("short", "MKWVLAARND"),
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", string(long[100:400]))
	ref, err := searchDB(db, q, Options{Variant: VariantNoVecSP})
	if err != nil {
		t.Fatal(err)
	}
	refScores := scoreList(t, db, ref)
	for _, opt := range []Options{{}, {Variant: VariantGuidedQP}, {Variant: VariantIntrinsicQP}} {
		res, err := searchDB(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		scores := scoreList(t, db, res)
		for i := range refScores {
			if scores[i] != refScores[i] {
				t.Fatalf("%+v: score %d = %d, want %d", opt, i, scores[i], refScores[i])
			}
		}
		if res.Overflows8 != 0 {
			t.Fatalf("%+v: Overflows8 = %d, want 0", opt, res.Overflows8)
		}
	}
}

// Every search runs the precision ladder end to end, whatever the variant
// label: identical scores, per-tier overflow accounting.
func TestSearchLadderVariant(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLA")
	ref, err := searchDB(db, q, Options{Variant: VariantGuidedSP})
	if err != nil {
		t.Fatal(err)
	}
	refScores := scoreList(t, db, ref)
	for _, variant := range []string{VariantIntrinsicSP, VariantIntrinsicQP} {
		got, err := searchDB(db, q, Options{Variant: variant})
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		gotScores := scoreList(t, db, got)
		for i := range refScores {
			if gotScores[i] != refScores[i] {
				t.Fatalf("%s: seq %d score %d, want %d", variant, i, gotScores[i], refScores[i])
			}
		}
		if got.Overflows8 != 0 || got.Overflows != 0 {
			t.Fatalf("%s: unexpected escalations %d/%d on a tiny database", variant, got.Overflows8, got.Overflows)
		}
	}

	// A subject at the byte rail (a cell of 255) escalates once; the
	// counter surfaces at the API level.
	rail := strings.Repeat("W", 22) + "CA" // 11*22 + 9 + 4 = 255
	sat, err := NewDatabase([]Sequence{
		NewSequence("sat", rail),
		NewSequence("tiny", "ARND"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := searchDB(sat, NewSequence("q", rail), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := scoreList(t, sat, res)[0]; s != 255 {
		t.Fatalf("saturating subject scored %d, want 255", s)
	}
	if res.Overflows8 != 1 || res.Overflows != 0 {
		t.Fatalf("escalations %d/%d, want 1/0", res.Overflows8, res.Overflows)
	}

	// The "-8bit" variant names are gone with the knob.
	for _, old := range []string{"intrinsic-SP-8bit", "intrinsic-QP-8bit"} {
		if _, err := searchDB(db, q, Options{Variant: old}); err == nil {
			t.Fatalf("%s accepted", old)
		}
	}
}
