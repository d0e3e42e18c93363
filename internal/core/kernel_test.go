package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
)

var testParamsBase = Params{GapOpen: 10, GapExtend: 2}

func randProtein(rng *rand.Rand, n int) *sequence.Sequence {
	letters := "ARNDCQEGHILKMFPSTWYV"
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(letters[rng.Intn(len(letters))])
	}
	return sequence.FromString("s", sb.String())
}

func randDB(rng *rand.Rand, n, maxLen int, sorted bool) *seqdb.Database {
	seqs := make([]*sequence.Sequence, n)
	for i := range seqs {
		seqs[i] = randProtein(rng, rng.Intn(maxLen)+1)
	}
	return seqdb.New(seqs, sorted)
}

// oracleScores computes reference scores for every database sequence.
func oracleScores(db *seqdb.Database, query []alphabet.Code) []int {
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	out := make([]int, db.Len())
	for i := 0; i < db.Len(); i++ {
		out[i] = swalign.Score(query, db.Seq(i).Residues, sc)
	}
	return out
}

func runVariant(t *testing.T, db *seqdb.Database, q *profile.Query, p Params, lanes int) ([]int32, Stats) {
	t.Helper()
	return runVariantQuiet(db, q, p, lanes)
}

// allParams crosses every variant label with the tile shapes. The labels
// are planner inputs and select no kernel, so every one of them must reach
// the oracle's scores through the same ladder.
func allParams() []Params {
	var out []Params
	for _, v := range Variants() {
		for _, blk := range []Params{
			{Blocked: false},
			{Blocked: true, BlockRows: 1},
			{Blocked: true, BlockRows: 7},
			{Blocked: true, BlockRows: 64},
		} {
			p := testParamsBase
			p.Variant = v
			p.Blocked = blk.Blocked
			p.BlockRows = blk.BlockRows
			out = append(out, p)
		}
	}
	return out
}

func TestAllVariantsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	db := randDB(rng, 37, 60, true)
	query := randProtein(rng, 45)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)

	for _, p := range allParams() {
		for _, lanes := range []int{1, 4, 16, 32} {
			got, _ := runVariant(t, db, q, p, lanes)
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("%v blocked=%v/%d lanes=%d: seq %d score %d, want %d",
						p.Variant, p.Blocked, p.BlockRows, lanes, i, got[i], want[i])
				}
			}
		}
	}
}

func TestVariantsMatchOracleUnsortedDB(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := randDB(rng, 25, 80, false) // unsorted: heavy padding in groups
	query := randProtein(rng, 33)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)
	for _, v := range Variants() {
		p := testParamsBase
		p.Variant = v
		got, _ := runVariant(t, db, q, p, 8)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("%v unsorted: seq %d score %d, want %d", v, i, got[i], want[i])
			}
		}
	}
}

func TestVariantsManyRandomTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 12; trial++ {
		db := randDB(rng, rng.Intn(20)+3, rng.Intn(70)+4, trial%2 == 0)
		query := randProtein(rng, rng.Intn(90)+2)
		q := profile.NewQuery(query.Residues, submat.BLOSUM62)
		want := oracleScores(db, query.Residues)
		p := testParamsBase
		p.Variant = Variant(trial % int(numVariants))
		p.Blocked = trial%3 == 0
		p.BlockRows = []int{0, 3, 17}[trial%3]
		lanes := []int{2, 8, 16, 32}[trial%4]
		got, _ := runVariant(t, db, q, p, lanes)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("trial %d (%v lanes=%d): seq %d score %d, want %d",
					trial, p.Variant, lanes, i, got[i], want[i])
			}
		}
	}
}

func TestIntrinsicOverflowEscalation(t *testing.T) {
	// A ~3000-residue tryptophan repeat self-aligned scores 11*3000 =
	// 33000 > MaxInt16, forcing 16-bit saturation; the kernel must detect
	// it and recompute in 32 bits.
	long := strings.Repeat("W", 3000)
	seqs := []*sequence.Sequence{
		sequence.FromString("long", long),
		sequence.FromString("short", "ARNDARND"),
	}
	db := seqdb.New(seqs, true)
	query := sequence.FromString("q", long)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)
	if want[0] <= 32767 {
		t.Fatalf("test setup: oracle score %d does not exceed int16", want[0])
	}
	for _, blocked := range []bool{false, true} {
		p := testParamsBase
		p.Variant = IntrinsicSP
		p.Blocked = blocked
		got, st := runVariant(t, db, q, p, 4)
		if int(got[0]) != want[0] || int(got[1]) != want[1] {
			t.Fatalf("blocked=%v: scores %v, want %v", blocked, got[:2], want)
		}
		if st.Overflows != 1 {
			t.Fatalf("blocked=%v: Overflows = %d, want 1", blocked, st.Overflows)
		}
		if st.OverflowCells != int64(len(long))*int64(len(long)) {
			t.Fatalf("OverflowCells = %d", st.OverflowCells)
		}
	}
}

func TestStatsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	db := randDB(rng, 20, 40, true)
	query := randProtein(rng, 25)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	m := int64(q.Len())

	p := testParamsBase
	p.Variant = IntrinsicSP
	_, st := runVariant(t, db, q, p, 8)
	if st.Cells != m*db.Residues() {
		t.Errorf("Cells = %d, want %d", st.Cells, m*db.Residues())
	}

	// The variant is a planner label: every one counts what the ladder did.
	for _, v := range Variants() {
		p.Variant = v
		if _, got := runVariant(t, db, q, p, 8); got != st {
			t.Errorf("%v counts %+v, intrinsic-SP %+v", v, got, st)
		}
	}
}

func TestEmptyQueryAndTinySequences(t *testing.T) {
	db := seqdb.New([]*sequence.Sequence{
		sequence.FromString("a", "A"),
		sequence.FromString("b", "W"),
	}, true)
	q := profile.NewQuery(nil, submat.BLOSUM62)
	for _, v := range Variants() {
		p := testParamsBase
		p.Variant = v
		got, st := runVariant(t, db, q, p, 4)
		for i, s := range got {
			if s != 0 {
				t.Fatalf("%v: empty query scored %d for seq %d", v, s, i)
			}
		}
		if st.Cells != 0 {
			t.Fatalf("%v: empty query counted %d cells", v, st.Cells)
		}
	}
}

func TestVariantStringRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("round trip of %v failed: %v, %v", v, got, err)
		}
	}
	if _, err := ParseVariant("avx-512"); err == nil {
		t.Fatal("ParseVariant accepted junk")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Variant: Variant(99)},
		{Variant: NoVecQP, GapOpen: -1},
		{Variant: NoVecQP, GapExtend: -2},
		{Variant: NoVecQP, Blocked: true, BlockRows: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cells: 1, Overflows: 2, Overflows8: 3, OverflowCells: 4}
	b := a
	b.Add(a)
	if want := (Stats{Cells: 2, Overflows: 4, Overflows8: 6, OverflowCells: 8}); b != want {
		t.Fatalf("Add = %+v, want %+v", b, want)
	}
}

// Property: for random gap penalties, every kernel variant agrees with the
// reference implementation (testing/quick drives the parameter space).
func TestRandomPenaltiesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	db := randDB(rng, 12, 50, true)
	query := randProtein(rng, 40)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	f := func(qo, qe uint8, variantSeed uint8, blocked bool) bool {
		gapOpen := int(qo % 20)
		gapExtend := int(qe % 8)
		sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: gapOpen, GapExtend: gapExtend}
		p := Params{
			Variant:   Variant(int(variantSeed) % int(numVariants)),
			GapOpen:   gapOpen,
			GapExtend: gapExtend,
			Blocked:   blocked,
		}
		got, _ := runVariantQuiet(db, q, p, 8)
		for i := 0; i < db.Len(); i++ {
			if int(got[i]) != swalign.Score(query.Residues, db.Seq(i).Residues, sc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// runVariantQuiet is runVariant without the testing.T plumbing, usable
// inside quick.Check property functions. The kernels size their query tiles
// for the host, far taller than any test query, so Blocked params here also
// force BlockRows-row tiles: the seam cases keep crossing tile boundaries.
func runVariantQuiet(db *seqdb.Database, q *profile.Query, p Params, lanes int) ([]int32, Stats) {
	buf := NewBuffers(lanes)
	if p.Blocked {
		buf.tileRows = p.BlockRows
	}
	scores := make([]int32, db.Len())
	var st Stats
	for _, g := range db.Groups(lanes) {
		got, s := AlignGroup(q, g, p, buf)
		st.Add(s)
		for l, idx := range g.SeqIdx {
			if idx >= 0 {
				scores[idx] = got[l]
			}
		}
	}
	return scores, st
}

// runRung scores db starting at one rung of the ladder whatever the lane
// width — AlignGroup picks byte lanes only at widths the native byte kernel
// takes — driving the byte pass the way the engine does: saturated lanes
// deferred, full escalation groups run after every group, the under-filled
// remainder at the end.
func runRung(db *seqdb.Database, q *profile.Query, p Params, lanes int, bytes bool) ([]int32, Stats) {
	buf := NewBuffers(lanes)
	if p.Blocked {
		buf.tileRows = p.BlockRows
	}
	scores := make([]int32, db.Len())
	got := make([]int32, lanes)
	var st Stats
	settle := func(all bool) {
		for _, e := range buf.escalate(q, p, &st, all) {
			scores[e.g.SeqIdx[e.lane]] = e.score
		}
	}
	for _, g := range db.Groups(lanes) {
		if bytes {
			st.Add(alignGroupIntrinsic8(q, g, p, buf, got))
		} else {
			st.Add(alignGroupIntrinsic(q, g, p, buf, got))
		}
		for l, idx := range g.SeqIdx {
			if idx >= 0 {
				scores[idx] = got[l]
			}
		}
		settle(false)
	}
	settle(true)
	return scores, st
}
