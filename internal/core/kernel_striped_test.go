package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// longCase is one row of the long-subject kernel table: a pair and its gap
// penalties, scored by alignPairStriped and by the swalign oracle.
type longCase struct {
	name           string
	query, subject []alphabet.Code
	open, extend   int
}

// paperGaps are the paper's penalties; lazyFGaps are the pairs that stress
// the lazy-F loop: a zero extension decays nothing along the stripes, a
// zero open makes a refreshed F as strong as a decayed one.
var (
	paperGaps = [2]int{10, 2}
	lazyFGaps = [][2]int{{10, 2}, {0, 1}, {12, 0}, {0, 0}, {1, 1}}
)

// everyTier runs fn under every vec tier the host runs: the portable loops,
// AVX2 and, where CPUID allows, AVX2+VBMI.
func everyTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, tr := range vec.Tiers() {
		t.Run(tr.String(), func(t *testing.T) {
			defer vec.CapTier(vec.CapTier(tr))
			fn(t)
		})
	}
}

// checkLongKernel requires alignPairStriped == swalign.Score on every case
// under every tier. One Buffers serves all cases of a tier, so the
// table also covers scratch reuse across query lengths.
func checkLongKernel(t *testing.T, cases []longCase) {
	t.Helper()
	want := make([]int, len(cases))
	for i, c := range cases {
		sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: c.open, GapExtend: c.extend}
		want[i] = swalign.Score(c.query, c.subject, sc)
	}
	everyTier(t, func(t *testing.T) {
		buf := NewBuffers(stripedLanes)
		for i, c := range cases {
			p := Params{Variant: IntrinsicSP, GapOpen: c.open, GapExtend: c.extend}
			q := profile.NewQuery(c.query, submat.BLOSUM62)
			var st Stats
			if got := alignPairStriped(q, c.subject, p, buf, &st); int(got) != want[i] {
				t.Fatalf("%s (M=%d N=%d, penalties %d/%d): striped %d, oracle %d",
					c.name, len(c.query), len(c.subject), c.open, c.extend, got, want[i])
			}
		}
	})
}

// randPair is a case over two unrelated random proteins.
func randPair(rng *rand.Rand, name string, m, n int, gaps [2]int) longCase {
	return longCase{name, randProtein(rng, m).Residues, randProtein(rng, n).Residues, gaps[0], gaps[1]}
}

// mutate returns a homolog of src at roughly the given identity: every
// position is kept with that probability, otherwise substituted, deleted
// or preceded by an insertion.
func mutate(rng *rand.Rand, src []alphabet.Code, identity float64) []alphabet.Code {
	out := make([]alphabet.Code, 0, len(src)+len(src)/8)
	for _, c := range src {
		if rng.Float64() < identity {
			out = append(out, c)
			continue
		}
		switch rng.Intn(4) {
		case 0: // deletion
		case 1: // insertion
			out = append(out, alphabet.Code(rng.Intn(20)), c)
		default:
			out = append(out, alphabet.Code(rng.Intn(20)))
		}
	}
	return out
}

// planted embeds frag in a random subject of about n residues.
func planted(rng *rand.Rand, frag []alphabet.Code, n int) []alphabet.Code {
	flank := (n - len(frag)) / 2
	if flank < 1 {
		flank = 1
	}
	out := append([]alphabet.Code{}, randProtein(rng, flank).Residues...)
	out = append(out, frag...)
	return append(out, randProtein(rng, flank).Residues...)
}

func TestStripedMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	var cases []longCase
	for trial := 0; trial < 250; trial++ {
		cases = append(cases, randPair(rng, fmt.Sprintf("trial %d", trial), rng.Intn(120)+1, rng.Intn(120)+1, paperGaps))
	}
	checkLongKernel(t, cases)
}

// The regime the engine routes here: subjects over DefaultLongSeqThreshold.
func TestIntraMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	var cases []longCase
	for trial := 0; trial < 12; trial++ {
		n := DefaultLongSeqThreshold + 1 + rng.Intn(500)
		cases = append(cases, randPair(rng, fmt.Sprintf("trial %d", trial), rng.Intn(300)+1, n, paperGaps))
	}
	checkLongKernel(t, cases)
}

func TestIntraAsymmetricShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	var cases []longCase
	for _, sh := range [][2]int{{1, 1}, {1, 50}, {50, 1}, {2, 300}, {300, 2}, {128, 128}, {37, 91}} {
		cases = append(cases, randPair(rng, fmt.Sprint("shape ", sh), sh[0], sh[1], paperGaps))
	}
	checkLongKernel(t, cases)
}

func TestStripedShortQueries(t *testing.T) {
	// Queries around the lane count exercise heavy stripe padding: one
	// stripe with most lanes padded, exactly one full stripe, one residue
	// into the second.
	rng := rand.New(rand.NewSource(401))
	var cases []longCase
	for _, m := range []int{1, 2, 7, 15, 16, 17, 31, 33} {
		cases = append(cases, randPair(rng, fmt.Sprintf("M=%d", m), m, 60, paperGaps))
	}
	checkLongKernel(t, cases)
}

func TestStripedGapHeavyPenalties(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	var cases []longCase
	for _, gp := range lazyFGaps {
		for trial := 0; trial < 40; trial++ {
			cases = append(cases, randPair(rng, fmt.Sprintf("trial %d", trial), rng.Intn(70)+1, rng.Intn(70)+1, gp))
		}
	}
	checkLongKernel(t, cases)
}

func TestIntraOtherPenalties(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	query := randProtein(rng, 60).Residues
	var cases []longCase
	for _, gp := range [][2]int{{0, 1}, {5, 0}, {14, 4}} {
		for trial := 0; trial < 30; trial++ {
			cases = append(cases, longCase{fmt.Sprintf("trial %d", trial), query,
				randProtein(rng, rng.Intn(80)+1).Residues, gp[0], gp[1]})
		}
	}
	checkLongKernel(t, cases)
}

// An 80%-identity homolog inside a long subject is the lazy-F stress case:
// high H values with indels keep F alive across many segment boundaries,
// where unrelated sequences finish the loop within a stripe or two.
func TestStripedPlantedHomology(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	var cases []longCase
	for _, m := range []int{189, 1000} {
		query := randProtein(rng, m).Residues
		subject := planted(rng, mutate(rng, query, 0.8), DefaultLongSeqThreshold+128)
		for _, gp := range lazyFGaps {
			cases = append(cases, longCase{"planted 80%", query, subject, gp[0], gp[1]})
		}
	}
	checkLongKernel(t, cases)
}

// Queries over stripedLanes*stripedTileRows residues take more than one
// fused step per column. The planted fragment lies across the seam between
// stripes 255 and 256 of one segment and lacks five query residues right
// there, so the diagonal and a live F both have to carry from one tile's
// call into the next.
func TestStripedTileSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	var cases []longCase
	for _, m := range []int{4097, 4200, 8200} {
		query := randProtein(rng, m).Residues
		stripes := (m + stripedLanes - 1) / stripedLanes
		if stripes <= stripedTileRows {
			t.Fatalf("M=%d fits one tile (%d stripes)", m, stripes)
		}
		seam := 3*stripes + stripedTileRows // query position of stripe 256 in segment 3
		frag := append([]alphabet.Code{}, query[seam-55:seam-2]...)
		frag = append(frag, query[seam+3:seam+45]...)
		subject := planted(rng, frag, 260)
		cases = append(cases,
			longCase{"seam", query, subject, 10, 2},
			longCase{"seam", query, subject, 0, 0},
			randPair(rng, "unrelated", m, 90, paperGaps))
	}
	checkLongKernel(t, cases)
}

func TestIntraEmptyInputs(t *testing.T) {
	some := randProtein(rand.New(rand.NewSource(1)), 5).Residues
	checkLongKernel(t, []longCase{
		{"empty query", nil, some, 10, 2},
		{"empty subject", some, nil, 10, 2},
		{"both empty", nil, nil, 10, 2},
	})
}

// A Buffers that served a longer query keeps its larger slabs; shorter and
// empty queries afterwards must not read the stale stripes.
func TestStripedEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	subject := randProtein(rng, 200).Residues
	var cases []longCase
	for _, m := range []int{500, 0, 33, 0, 5000, 1, 500} {
		cases = append(cases, longCase{fmt.Sprintf("M=%d after longer", m), randProtein(rng, m).Residues, subject, 10, 2})
	}
	checkLongKernel(t, cases)
}

func TestStripedSaturationEscalation(t *testing.T) {
	// A tryptophan self-alignment scores 11 per residue: 2978 residues
	// stay under the int16 ceiling, 3100 clip at it and must be reported.
	everyTier(t, func(t *testing.T) {
		buf := NewBuffers(stripedLanes)
		for _, c := range []struct {
			n   int
			sat bool
		}{{2978, false}, {3100, true}} {
			w := sequence.FromString("w", strings.Repeat("W", c.n)).Residues
			q := profile.NewQuery(w, submat.BLOSUM62)
			got, sat := alignPairStriped16(q, w, testParamsBase, buf)
			if sat != c.sat {
				t.Fatalf("W x %d: saturated = %v, want %v", c.n, sat, c.sat)
			}
			if !sat && got != int32(11*c.n) {
				t.Fatalf("W x %d: score %d, want %d", c.n, got, 11*c.n)
			}
			if sat && got != vec.MaxI16 {
				t.Fatalf("W x %d: clipped score %d, want %d", c.n, got, vec.MaxI16)
			}
		}
	})
}

// The long path's ladder is 16-bit striped -> 32-bit scalar, whatever
// first-pass precision the search asked for: it must match the oracle on
// both tiers and count only the 32-bit recomputation.
func TestStripedLadderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	subjects := [][]alphabet.Code{
		randProtein(rng, 40).Residues,
		randProtein(rng, 500).Residues,
		sequence.FromString("mid", strings.Repeat("W", 25)).Residues,
		sequence.FromString("long", strings.Repeat("W", 3100)).Residues,
	}
	var cases []longCase
	for _, qlen := range []int{30, 300} {
		query := randProtein(rng, qlen).Residues
		for si, s := range subjects {
			cases = append(cases, longCase{fmt.Sprintf("subject %d", si), query, s, 10, 2})
		}
	}
	checkLongKernel(t, cases)

	everyTier(t, func(t *testing.T) {
		w := sequence.FromString("q", strings.Repeat("W", 3100)).Residues
		q := profile.NewQuery(w, submat.BLOSUM62)
		p := ladderParams(true, 0)
		buf := NewBuffers(stripedLanes)
		var st Stats
		if got := alignPairStriped(q, w, p, buf, &st); got != 11*3100 {
			t.Fatalf("W-run score %d, want %d", got, 11*3100)
		}
		if st.Overflows8 != 0 || st.Overflows != 1 || st.OverflowCells != 3100*3100 {
			t.Fatalf("W-run escalations: Overflows8=%d Overflows=%d OverflowCells=%d, want 0/1/%d",
				st.Overflows8, st.Overflows, st.OverflowCells, 3100*3100)
		}
		st = Stats{}
		if got := alignPairStriped(q, w[:25], p, buf, &st); got != 11*25 || st != (Stats{}) {
			t.Fatalf("unsaturated pair: score %d, stats %+v", got, st)
		}
	})
}

func TestIntraLargeScores(t *testing.T) {
	// The 32-bit recomputation must be exact far beyond the int16 range.
	w := sequence.FromString("a", strings.Repeat("W", 4000)).Residues
	q := profile.NewQuery(w, submat.BLOSUM62)
	var st Stats
	if got := alignPairStriped(q, w, testParamsBase, NewBuffers(stripedLanes), &st); got != 11*4000 {
		t.Fatalf("self-score %d, want %d", got, 11*4000)
	}
}

// A warmed long-subject call allocates nothing, on the 16-bit pass and
// through the 32-bit recomputation.
func TestStripedNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	query := randProtein(rng, 375).Residues
	subject := planted(rng, mutate(rng, query, 0.8), DefaultLongSeqThreshold+1)
	w := sequence.FromString("w", strings.Repeat("W", 3100)).Residues
	everyTier(t, func(t *testing.T) {
		buf := NewBuffers(stripedLanes)
		for _, c := range []struct {
			name           string
			query, subject []alphabet.Code
		}{{"16-bit pass", query, subject}, {"32-bit recomputation", w, w}} {
			q := profile.NewQuery(c.query, submat.BLOSUM62)
			var st Stats
			alignPairStriped(q, c.subject, testParamsBase, buf, &st) // warm the scratch
			if n := testing.AllocsPerRun(3, func() {
				alignPairStriped(q, c.subject, testParamsBase, buf, &st)
			}); n != 0 {
				t.Errorf("%s: %v allocs per warmed call, want 0", c.name, n)
			}
		}
	})
}
