package heterosw

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
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

func TestSearchDefaults(t *testing.T) {
	db, _ := tinyDB(t)
	res, err := searchDB(db, NewSequence("q", "MKWVLA"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 4 || len(res.Scores) != 4 {
		t.Fatalf("hits %d scores %d", len(res.Hits), len(res.Scores))
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
	var want *ClusterResult
	for _, v := range Variants() {
		res, err := searchDB(db, q, Options{Variant: v})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if want == nil {
			want = res
			continue
		}
		for i := range want.Scores {
			if res.Scores[i] != want.Scores[i] {
				t.Fatalf("%s: score %d differs: %d vs %d", v, i, res.Scores[i], want.Scores[i])
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
	// (A cluster ignores Options.Device; Database.Simulate, which reads
	// it, rejects an unknown one — TestDatabaseSimulate.)
	cases := []Options{
		{Variant: "avx512-madness"},
		{Matrix: "BLOSUM13"},
		{Schedule: "fifo"},
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
	banded, err := ScoreBanded(a, b, 2, 3, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if banded > sc {
		t.Fatalf("banded %d > full %d", banded, sc)
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
	res, err := searchDB(db, queries[0], Options{TopK: 1})
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
	back, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].String() != "ARND" || back[1].ID() != "b" {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := ReadFASTA(strings.NewReader(">x\nMKV\n")); err != nil {
		t.Fatal(err)
	}
}

func TestDevicesInfo(t *testing.T) {
	devs := Devices()
	if len(devs) != 2 {
		t.Fatalf("%d devices", len(devs))
	}
	if devs[0].Kind != DeviceXeon || devs[0].Threads != 32 {
		t.Fatalf("xeon info: %+v", devs[0])
	}
	if devs[1].Kind != DevicePhi || devs[1].Threads != 240 || devs[1].Lanes != 32 {
		t.Fatalf("phi info: %+v", devs[1])
	}
}

func TestUnsortedDatabase(t *testing.T) {
	seqs := []Sequence{NewSequence("a", "AR"), NewSequence("b", "ARNDCQEG")}
	db, err := NewDatabaseUnsorted(seqs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := searchDB(db, NewSequence("q", "ARND"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 2 {
		t.Fatalf("%d hits", len(res.Hits))
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
	res, err := searchDB(db, queries[4], Options{})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := res.FitSignificance(0)
	if err != nil {
		t.Fatal(err)
	}
	// The planted self-hit must be overwhelmingly significant.
	if e := sig.EValue(res.Hits[0].Score); e > 1e-6 {
		t.Fatalf("self-hit EValue %v", e)
	}
	// A mid-distribution score is unremarkable.
	mid := int(res.Scores[len(res.Scores)/2])
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

// With no Shares, the static plan of Algorithm 2's pair derives
// model-balanced shares, and beats a lopsided pinned split.
func TestAutoSplitAPI(t *testing.T) {
	db, queries := SyntheticSwissProt(0.002, true)
	qlen := queries[4].Len()
	plan := func(shares []float64) *Plan {
		t.Helper()
		cl, err := NewCluster(db, ClusterOptions{Devices: []DeviceKind{DevicePhi, DeviceXeon}, Shares: shares})
		if err != nil {
			t.Fatal(err)
		}
		p, err := cl.Plan(qlen)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	auto := plan(nil)
	if phi := auto.Devices[0].Share; phi <= 0 || phi >= 1 {
		t.Fatalf("auto split share %v", phi)
	}
	if lopsided := plan([]float64{0.9, 0.1}); auto.Seconds > lopsided.Seconds*1.02 {
		t.Fatalf("auto split (%v s) worse than a 90%% Phi share (%v s)", auto.Seconds, lopsided.Seconds)
	}
}

// Database.Simulate is Algorithm 1 on the device model: the planner's
// estimate for one device over the database's lengths (pinned by
// internal/core's plan_golden.json over the same synthetic corpus), with
// Options.Device and Options.Threads as its inputs.
func TestDatabaseSimulate(t *testing.T) {
	db, _ := SyntheticSwissProt(0.01, false)
	raw, err := os.ReadFile("internal/core/testdata/plan_golden.json")
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
	for _, e := range golden.Estimates {
		sim, err := db.Simulate(e.QueryLen, Options{Device: e.Device})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sim.Seconds-e.Seconds) > 1e-12*e.Seconds {
			t.Errorf("%s, %d residues: %v s, golden %v", e.Device, e.QueryLen, sim.Seconds, e.Seconds)
		}
		if want := float64(e.QueryLen) * float64(db.Residues()) / sim.Seconds / 1e9; sim.GCUPS != want {
			t.Errorf("%s: GCUPS %v, want %v", e.Device, sim.GCUPS, want)
		}
		if d := sim.Devices; len(d) != 1 || d[0].Device != e.Device || d[0].Share != 1 {
			t.Errorf("%s: devices %+v", e.Device, d)
		}
	}
	few, err := db.Simulate(1000, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.Simulate(1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if few.Devices[0].Threads != 4 || all.Devices[0].Threads != 32 || few.Seconds <= all.Seconds {
		t.Fatalf("4 threads: %+v; all threads: %+v", few, all)
	}
	for _, bad := range []Options{{Threads: 1000}, {Device: "gpu"}, {Variant: "nope"}} {
		if _, err := db.Simulate(1000, bad); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if _, err := db.Simulate(0, Options{}); err == nil {
		t.Error("zero query length accepted")
	}
}

// Every search sends the long subject down the one long-path kernel, and
// searches with routing disabled reach the same scores without it. The long
// subject's score is far over a byte, so the 8-bit escalation counter tells
// the two routes apart: the long path starts at 16 bits, a byte lane
// escalates. The variant label changes neither.
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
	for _, tc := range []struct {
		opt        Options
		overflows8 int64
	}{
		{Options{}, 0},
		{Options{Variant: VariantGuidedQP}, 0},
		{Options{Variant: VariantGuidedQP, LongSeqThreshold: -1}, 1},
		{Options{Variant: VariantIntrinsicQP}, 0},
		{Options{LongSeqThreshold: -1}, 1},
	} {
		res, err := searchDB(db, q, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Scores {
			if res.Scores[i] != ref.Scores[i] {
				t.Fatalf("%+v: score %d = %d, want %d", tc.opt, i, res.Scores[i], ref.Scores[i])
			}
		}
		if res.Overflows8 != tc.overflows8 {
			t.Fatalf("%+v: Overflows8 = %d, want %d", tc.opt, res.Overflows8, tc.overflows8)
		}
	}
}

// Every search runs the precision ladder end to end, whatever the variant
// label or the Options.Device: identical scores, per-tier overflow
// accounting.
func TestSearchLadderVariant(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLA")
	ref, err := searchDB(db, q, Options{Variant: VariantGuidedSP})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{VariantIntrinsicSP, VariantIntrinsicQP} {
		for _, dev := range []DeviceKind{DeviceXeon, DevicePhi} {
			got, err := searchDB(db, q, Options{Variant: variant, Device: dev})
			if err != nil {
				t.Fatalf("%s on %s: %v", variant, dev, err)
			}
			for i := range ref.Scores {
				if got.Scores[i] != ref.Scores[i] {
					t.Fatalf("%s on %s: seq %d score %d, want %d", variant, dev, i, got.Scores[i], ref.Scores[i])
				}
			}
			if got.Overflows8 != 0 || got.Overflows != 0 {
				t.Fatalf("%s on %s: unexpected escalations %d/%d on a tiny database", variant, dev, got.Overflows8, got.Overflows)
			}
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
	if res.Scores[0] != 255 {
		t.Fatalf("saturating subject scored %d, want 255", res.Scores[0])
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
