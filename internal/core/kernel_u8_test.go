package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"heterosw/internal/device"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
)

// ladderParams returns the test penalties; blocked forces blockRows-row
// query tiles on the test helpers' scratch (see runVariantQuiet).
func ladderParams(blocked bool, blockRows int) Params {
	p := testParamsBase
	p.Blocked = blocked
	p.BlockRows = blockRows
	return p
}

// The 8-bit first pass must be score-identical to the oracle across every
// lane width and tile shape — saturating lanes escalate transparently —
// whether the engine's deferred escalation drives it or AlignGroup settles
// every group on its own.
func TestLadderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	db := randDB(rng, 41, 70, true)
	query := randProtein(rng, 52)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)
	for _, blk := range [][2]int{{0, 0}, {1, 1}, {1, 7}, {1, 64}} {
		for _, lanes := range []int{1, 4, 8, 32, 64} {
			p := ladderParams(blk[0] == 1, blk[1])
			got, st := runRung(db, q, p, lanes, true)
			if byteLanes(true, lanes) {
				// A width AlignGroup itself starts in byte lanes.
				viaGroup, stGroup := runVariantQuiet(db, q, p, lanes)
				if stGroup != st {
					t.Fatalf("lanes=%d: AlignGroup stats %+v, deferred %+v", lanes, stGroup, st)
				}
				for i := range got {
					if viaGroup[i] != got[i] {
						t.Fatalf("lanes=%d: seq %d scores %d via AlignGroup, %d deferred", lanes, i, viaGroup[i], got[i])
					}
				}
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("blocked=%v/%d lanes=%d: seq %d score %d, want %d",
						p.Blocked, p.BlockRows, lanes, i, got[i], want[i])
				}
			}
		}
	}
}

// The tile drivers hand H and F across a seam only where there is one: the
// first tile reads no boundary, the last stores none, and nothing is cleared
// in between. Both rungs must stay exact for a query that is exactly one
// tile (tile height M and M+1), one with a one-row last tile (M-1) and ones
// of many tiles (7, 1) — over a padded last lane group, with a lane that
// reaches the byte rail only in the query's last rows, far from the first
// tile (TestLadderEscalationTiers does the same to the int16 rail, a dozen
// 256-row tiles down). Replayed under every vec tier: the seam traffic is
// the same, the byte rung's score lookup is not. The forced heights are
// small; the production ones, from tileBytes, are crossed as well (see
// checkHostTiles).
func TestTileSeams(t *testing.T) {
	rng := rand.New(rand.NewSource(215))
	// 41 subjects leave 23 padding lanes in the second 32-lane group. The
	// query's last 24 rows are the run that saturates a byte lane of the
	// planted subject, reaching the rail at the run's last residue: at
	// every height but M and M+1 in a tile that is not the first.
	run := railRun
	query := sequence.FromString("q", randProtein(rng, 29).String()+run)
	seqs := make([]*sequence.Sequence, 41)
	for i := range seqs {
		seqs[i] = randProtein(rng, rng.Intn(70)+1)
	}
	seqs[17] = sequence.FromString("planted", "ARND"+run+"CQEG")
	// And one whose best alignment skips query rows 13-17: a vertical gap,
	// F carried across every seam inside it.
	seqs[5] = sequence.FromString("gapped", query.String()[:12]+query.String()[17:29])
	db := seqdb.New(seqs, true)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)
	m := query.Len()
	everyTier(t, func(t *testing.T) {
		for _, bytes := range []bool{true, false} {
			for _, rows := range []int{1, m - 1, m, m + 1, 7} {
				got, st := runRung(db, q, ladderParams(true, rows), 32, bytes)
				for i := range want {
					if int(got[i]) != want[i] {
						t.Fatalf("from bytes=%v, %d-row tiles: seq %d score %d, want %d",
							bytes, rows, i, got[i], want[i])
					}
				}
				// Only the byte rung escalates, and only the planted lane.
				if (st.Overflows8 == 1) != bytes || st.Overflows != 0 {
					t.Fatalf("from bytes=%v, %d-row tiles: escalations %d/%d",
						bytes, rows, st.Overflows8, st.Overflows)
				}
			}
		}
	})
	checkHostTiles(t, rng)
}

// checkHostTiles is TestTileSeams at the tile heights the kernels size for
// the host (tileRows unset): 64 and 32 byte lanes and the 16 int16 lanes of
// an escalation group, over queries of one tile, of one tile and a one-row
// last tile, and of 3 tiles and 7 rows, with the rail run ending the query
// (in a tile that is not the first, where there are two) and a vertical gap
// across the first seam. The H+E slab, 2*(rows+1)*lanes*elem bytes, holds
// the tile's rows of H and E from row 1 of each array; the rows the column
// step walks must fit tileBytes.
func checkHostTiles(t *testing.T, rng *rand.Rand) {
	for _, c := range []struct {
		lanes int
		bytes bool
		tile  int
	}{{64, true, 256}, {32, true, 512}, {escLanes, false, 512}} {
		elem := 2
		if c.bytes {
			elem = 1
		}
		for _, m := range []int{c.tile, c.tile + 1, 3*c.tile + 7} {
			query := sequence.FromString("q", randProtein(rng, m-len(railRun)).String()+railRun)
			seqs := make([]*sequence.Sequence, 41)
			for i := range seqs {
				seqs[i] = randProtein(rng, rng.Intn(70)+1)
			}
			seqs[17] = sequence.FromString("planted", "ARND"+railRun+"CQEG")
			if m > c.tile+29 {
				// Skips query rows tile-2 .. tile+2.
				s := query.String()
				seqs[5] = sequence.FromString("gapped", s[c.tile-14:c.tile-2]+s[c.tile+3:c.tile+15])
			}
			db := seqdb.New(seqs, true)
			q := profile.NewQuery(query.Residues, submat.BLOSUM62)
			want := oracleScores(db, query.Residues)
			t.Run(fmt.Sprintf("host/lanes=%d/elem=%d/M=%d", c.lanes, elem, m), func(t *testing.T) {
				everyTier(t, func(t *testing.T) {
					got, st := runRung(db, q, ladderParams(false, 0), c.lanes, c.bytes)
					for i := range want {
						if int(got[i]) != want[i] {
							t.Fatalf("%d lanes, bytes=%v, M=%d: seq %d score %d, want %d",
								c.lanes, c.bytes, m, i, got[i], want[i])
						}
					}
					if (st.Overflows8 == 1) != c.bytes || st.Overflows != 0 {
						t.Fatalf("%d lanes, bytes=%v, M=%d: escalations %d/%d",
							c.lanes, c.bytes, m, st.Overflows8, st.Overflows)
					}
				})
			})
			// The slab the kernel allocated for this query: c.tile rows
			// whenever the query is longer.
			buf := NewBuffers(c.lanes)
			g := db.Groups(c.lanes)[0]
			var slab int
			if c.bytes {
				alignGroupIntrinsic8(q, g, ladderParams(false, 0), buf, make([]int32, c.lanes))
				slab = len(buf.he8)
			} else {
				alignGroupIntrinsic(q, g, ladderParams(false, 0), buf, make([]int32, c.lanes))
				slab = 2 * len(buf.he16)
			}
			rows := min(m, c.tile)
			if want := 2 * (rows + 1) * c.lanes * elem; slab != want {
				t.Fatalf("%d lanes of %d bytes, M=%d: H+E slab %d bytes, want %d", c.lanes, elem, m, slab, want)
			}
			if walked := 2 * rows * c.lanes * elem; walked > tileBytes {
				t.Fatalf("%d lanes of %d bytes, M=%d: %d-row tile walks %d bytes, over %d",
					c.lanes, elem, m, rows, walked, tileBytes)
			}
		}
	}
}

// railRun self-aligns to 11*22 + 9 + 4 = 255 under BLOSUM62, exactly the
// byte rail: a subject that escalates by the smallest margin there is.
var railRun = strings.Repeat("W", 22) + "CA"

// What decides byte lanes: gap penalties within a signed byte's reach and
// a lane width of whole byte registers. AlignGroup on a 16-lane group, or
// with q+r over 127, starts at the 16-bit rung and never counts an
// 8 -> 16 escalation.
func TestLadderFirstRung(t *testing.T) {
	for _, tc := range []struct {
		viable bool
		lanes  int
		want   bool
	}{
		{true, 32, true}, {true, 64, true}, {true, 96, true},
		{true, 16, false}, {true, 48, false}, {true, 1, false}, {true, 8, false},
		{false, 32, false}, {false, 64, false},
	} {
		if got := byteLanes(tc.viable, tc.lanes); got != tc.want {
			t.Errorf("byteLanes(%v, %d) = %v, want %v", tc.viable, tc.lanes, got, tc.want)
		}
	}
	for _, dev := range []*device.Model{device.Xeon(), device.Phi()} {
		if lanes, eight := (Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2}).FirstRung(dev); lanes != dev.ByteLanes() || !eight {
			t.Errorf("%s intrinsic, viable: %d lanes, byte=%v", dev.Short, lanes, eight)
		}
		if lanes, eight := (Params{Variant: IntrinsicQP, GapOpen: 120, GapExtend: 10}).FirstRung(dev); lanes != dev.Lanes || eight {
			t.Errorf("%s intrinsic, wide gaps: %d lanes, byte=%v", dev.Short, lanes, eight)
		}
		if lanes, eight := (Params{Variant: GuidedSP}).FirstRung(dev); lanes != dev.Lanes || eight {
			t.Errorf("%s guided: %d lanes, byte=%v", dev.Short, lanes, eight)
		}
		if lanes, eight := (Params{Variant: NoVecSP}).FirstRung(dev); lanes != 1 || eight {
			t.Errorf("%s scalar: %d lanes, byte=%v", dev.Short, lanes, eight)
		}
	}

	for _, c := range []struct {
		p    Params
		want bool
	}{
		{Params{GapOpen: 10, GapExtend: 2}, true},
		{Params{GapOpen: 120, GapExtend: 7}, true},
		{Params{GapOpen: 120, GapExtend: 8}, false},
		{Params{GapOpen: 0, GapExtend: 128}, false},
	} {
		if got := c.p.byteGaps(); got != c.want {
			t.Errorf("%d/%d: byteGaps = %v, want %v", c.p.GapOpen, c.p.GapExtend, got, c.want)
		}
	}

	db := seqdb.New([]*sequence.Sequence{sequence.FromString("mid", railRun)}, true)
	query := sequence.FromString("q", railRun)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	for _, lanes := range []int{16, 32} {
		got, st := runVariantQuiet(db, q, ladderParams(false, 0), lanes)
		want8 := int64(0)
		if lanes == 32 {
			want8 = 1
		}
		if got[0] != 255 || st.Overflows8 != want8 || st.Overflows != 0 {
			t.Fatalf("lanes=%d: score %d Overflows8=%d Overflows=%d, want 255, %d, 0", lanes, got[0], st.Overflows8, st.Overflows, want8)
		}
	}
	// Penalties a signed byte cannot subtract: 16-bit first.
	got, st := runVariantQuiet(db, q, Params{GapOpen: 120, GapExtend: 10}, 32)
	if got[0] != 255 || st.Overflows8 != 0 || st.Safe8Groups != 0 {
		t.Fatalf("gaps 120/10: score %d Overflows8=%d Safe8Groups=%d", got[0], st.Overflows8, st.Safe8Groups)
	}
}

// The byte rail sits at a cell of 255: a lane scoring 254 stays in bytes
// and one scoring 255 escalates, in 32- and 64-lane groups (a ymm and a zmm
// strip of the avx2+vbmi tier) under every tier, whatever the tiling.
func TestLadderByteRailBoundary(t *testing.T) {
	// Against a W query, W scores 11, F 1 and Y 2: 253+1 and 253+2.
	db := seqdb.New([]*sequence.Sequence{
		sequence.FromString("at254", strings.Repeat("W", 23)+"F"),
		sequence.FromString("at255", strings.Repeat("W", 23)+"Y"),
		sequence.FromString("tiny", "W"),
	}, false)
	query := sequence.FromString("q", strings.Repeat("W", 30))
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := []int32{254, 255, 11}
	everyTier(t, func(t *testing.T) {
		for _, lanes := range []int{32, 64} {
			for _, rows := range []int{0, 7} {
				got, st := runRung(db, q, ladderParams(rows > 0, rows), lanes, true)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("lanes=%d tile=%d: seq %d scored %d, want %d", lanes, rows, i, got[i], want[i])
					}
				}
				if st.Overflows8 != 1 || st.OverflowCells != int64(q.Len())*24 || st.Safe8Groups != 0 {
					t.Fatalf("lanes=%d tile=%d: Overflows8=%d OverflowCells=%d Safe8Groups=%d, want only at255 escalated",
						lanes, rows, st.Overflows8, st.OverflowCells, st.Safe8Groups)
				}
			}
		}
	})
}

// Gap penalties over a signed byte's reach (q+r > 127) start the whole
// search at the 16-bit rung: exact against the oracle, with no 8 -> 16
// escalation, through the engine and the planner's lane width alike.
func TestLadderWideGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(216))
	query := randProtein(rng, 60)
	db := plantedDB(rng, query, 40, 8)
	opt := defaultSearchOptions()
	opt.Params.GapOpen, opt.Params.GapExtend = 120, 10
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 120, GapExtend: 10}
	for _, dev := range []*device.Model{device.Xeon(), device.Phi()} {
		if lanes, eight := opt.Params.FirstRung(dev); lanes != dev.Lanes || eight {
			t.Fatalf("%s: gaps 120/10 plan %d lanes, byte=%v", dev.Short, lanes, eight)
		}
		e, err := NewEngine(db, dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(query, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < db.Len(); i++ {
			if want := int32(swalign.Score(query.Residues, db.Seq(i).Residues, sc)); res.Scores[i] != want {
				t.Fatalf("%s: seq %d score %d, want %d", dev.Short, i, res.Scores[i], want)
			}
		}
		if st := res.Stats; st.Overflows8 != 0 || st.Safe8Groups != 0 || st.Overflows != 0 {
			t.Fatalf("%s: gaps 120/10 counted Overflows8=%d Safe8Groups=%d Overflows=%d, want none",
				dev.Short, st.Overflows8, st.Safe8Groups, st.Overflows)
		}
	}
}

// Three subjects pinned to the three rungs of the ladder: a short one that
// resolves in the provably-safe 8-bit pass, a mid one that saturates the
// byte rail but fits 16 bits, and a long one that climbs to 32 bits.
// Per-tier overflow counters must record exactly the escalations.
func TestLadderEscalationTiers(t *testing.T) {
	w := strings.Repeat("W", 23) + "Y" // 11*23 + 2 = 255 against W: the byte rail, needs 16 bits
	long := strings.Repeat("W", 3000)  // 33000 > MaxInt16: needs 32 bits
	db := seqdb.New([]*sequence.Sequence{
		sequence.FromString("short", "ARNDARND"),
		sequence.FromString("mid", w),
		sequence.FromString("long", long),
	}, true)
	query := sequence.FromString("q", long)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)

	for _, blocked := range []bool{false, true} {
		p := ladderParams(blocked, 256)
		// lanes=1: one group per subject, so the short group is provably
		// byte-safe on its own.
		got, st := runRung(db, q, p, 1, true)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("blocked=%v: seq %d score %d, want %d", blocked, i, got[i], want[i])
			}
		}
		if st.Overflows8 != 2 {
			t.Fatalf("blocked=%v: Overflows8 = %d, want 2 (mid and long)", blocked, st.Overflows8)
		}
		if st.Overflows != 1 {
			t.Fatalf("blocked=%v: Overflows = %d, want 1 (long)", blocked, st.Overflows)
		}
		if st.Safe8Groups != 1 {
			t.Fatalf("blocked=%v: Safe8Groups = %d, want 1 (short)", blocked, st.Safe8Groups)
		}
		// mid pays one 16-bit recompute; long pays a 16-bit then a 32-bit.
		if st.OverflowCells != int64(q.Len())*(int64(len(w))+2*int64(len(long))) {
			t.Fatalf("blocked=%v: OverflowCells = %d", blocked, st.OverflowCells)
		}
	}
}

// plantedDB builds n unrelated subjects of 60-220 residues and overwrites a
// window of every planted one — spread over the length-sorted order, the
// longest subject included whenever any is planted — with a 60-residue
// fragment of the query, enough to saturate a byte lane under BLOSUM62.
func plantedDB(rng *rand.Rand, query *sequence.Sequence, n, planted int) *seqdb.Database {
	seqs := make([]*sequence.Sequence, n)
	longest := 0
	for i := range seqs {
		seqs[i] = randProtein(rng, 60+rng.Intn(160))
		if seqs[i].Len() > seqs[longest].Len() {
			longest = i
		}
	}
	plant := func(i int) {
		off := rng.Intn(query.Len() - 59)
		copy(seqs[i].Residues[rng.Intn(seqs[i].Len()-59):], query.Residues[off:off+60])
	}
	if planted > 0 {
		plant(longest)
	}
	for k, i := 1, 0; k < planted; i++ {
		if i != longest && i%(n/planted) == 0 {
			plant(i)
			k++
		}
	}
	return seqdb.New(seqs, true)
}

// Homolog-rich databases: with 0, 2, 10 and 30% of the subjects saturating
// their byte lanes the search stays exact, counts exactly the planted
// subjects as 8 -> 16 escalations, and pays for them only the 16-bit lane
// pass — no 32-bit cell, no cell beyond one recompute of each saturated
// subject. 88 subjects leave the last byte group under-filled (with the
// longest, planted, subject in it) and the escalation queue with a partial
// last group for every worker count.
func TestLadderHomologRich(t *testing.T) {
	const subjects = 88
	type homologCase struct {
		name              string
		query             *sequence.Sequence
		db                *seqdb.Database
		want              []int
		saturating, cells int64
	}
	var cases []homologCase
	for _, m := range []int{75, 375, 2000} {
		if testing.Short() && m > 375 {
			continue
		}
		for _, pct := range []int{0, 2, 10, 30} {
			rng := rand.New(rand.NewSource(int64(1000*m + pct)))
			c := homologCase{name: fmt.Sprintf("M=%d %d%%", m, pct), query: randProtein(rng, m)}
			planted := subjects * pct / 100
			c.db = plantedDB(rng, c.query, subjects, planted)
			c.want = oracleScores(c.db, c.query.Residues)
			for i, s := range c.want {
				if s >= byteRail {
					c.saturating++
					c.cells += int64(m) * int64(c.db.Seq(i).Len())
				}
			}
			if c.saturating != int64(planted) {
				t.Fatalf("%s: %d subjects reach the byte rail, planted %d", c.name, c.saturating, planted)
			}
			cases = append(cases, c)
		}
	}
	everyTier(t, func(t *testing.T) {
		for _, c := range cases {
			for d, dev := range []*device.Model{device.Xeon(), device.Phi()} {
				e, err := NewEngine(c.db, dev)
				if err != nil {
					t.Fatal(err)
				}
				for w, workers := range []int{1, 3} {
					if c.query.Len() > 375 && d == w {
						continue // the long query: xeon x 3 workers, phi x 1
					}
					opt := defaultSearchOptions()
					opt.Workers = workers
					res, err := e.Search(c.query, opt)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s %s workers=%d", c.name, dev.Short, workers)
					for i := range c.want {
						if int(res.Scores[i]) != c.want[i] {
							t.Fatalf("%s: seq %d score %d, want %d", name, i, res.Scores[i], c.want[i])
						}
					}
					st := res.Stats
					if st.Overflows8 != c.saturating || st.Overflows != 0 || st.OverflowCells != c.cells {
						t.Fatalf("%s: Overflows8=%d Overflows=%d OverflowCells=%d, want %d, 0, %d",
							name, st.Overflows8, st.Overflows, st.OverflowCells, c.saturating, c.cells)
					}
				}
			}
		}
	})
}

// A lane that saturates the 16-bit rung inside a re-packed group climbs on
// alone: its neighbours in the escalation group keep their 16-bit scores,
// and the operation counts are the same whatever the worker count.
func TestLadderRepackedRungEscalates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	long := strings.Repeat("W", 3000)
	query := sequence.FromString("q", long)
	seqs := []*sequence.Sequence{sequence.FromString("wide", long)}
	for i := 0; i < 40; i++ {
		s := randProtein(rng, 100+rng.Intn(100))
		if i%2 == 0 {
			copy(s.Residues[10:], query.Residues[:40]) // 440: a byte is not enough, int16 is
		}
		seqs = append(seqs, s)
	}
	db := seqdb.New(seqs, true)
	want := oracleScores(db, query.Residues)
	e := testEngine(t, db)
	var first *Result
	for _, workers := range []int{1, 2, 5} {
		opt := defaultSearchOptions()
		opt.Workers = workers
		res, err := e.Search(query, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if int(res.Scores[i]) != want[i] {
				t.Fatalf("workers=%d: seq %d score %d, want %d", workers, i, res.Scores[i], want[i])
			}
		}
		if res.Stats.Overflows8 != 21 || res.Stats.Overflows != 1 {
			t.Fatalf("workers=%d: Overflows8=%d Overflows=%d, want 21 and 1", workers, res.Stats.Overflows8, res.Stats.Overflows)
		}
		if first == nil {
			first = res
		} else if res.Stats != first.Stats {
			t.Fatalf("workers=%d: stats moved: %+v vs %+v", workers, res.Stats, first.Stats)
		}
	}
}

// Once warm, the byte pass, the queue and the re-packed 16-bit rung run
// without allocating: the scratch group and its Buffers are reused.
func TestLadderEscalationNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	query := randProtein(rng, 90)
	db := plantedDB(rng, query, 50, 20)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	everyTier(t, func(t *testing.T) {
		p := ladderParams(false, 0)
		groups := db.Groups(32)
		buf := NewBuffers(32)
		scores := make([]int32, 32)
		var st Stats
		sweep := func() {
			for _, g := range groups {
				st.Add(alignGroupIntrinsic8(q, g, p, buf, scores))
				buf.escalate(q, p, &st, false)
			}
			buf.escalate(q, p, &st, true)
		}
		sweep()
		if st.Overflows8 != 20 {
			t.Fatalf("Overflows8 = %d, want 20; the case pins nothing", st.Overflows8)
		}
		esc := buf.esc
		if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
			t.Errorf("%v allocations per warmed sweep", allocs)
		}
		if buf.esc != esc {
			t.Errorf("the escalation scratch was rebuilt")
		}
	})
}

// A search borrows its workers' scratch from the engine's pool and returns
// it: a second search builds no Buffers, and concurrent searches leave the
// pool no more than one search's worth.
func TestEnginePoolsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := randDB(rng, 200, 80, true)
	query := randProtein(rng, 50)
	e := testEngine(t, db)
	opt := defaultSearchOptions()
	opt.Workers = 1
	lanes := e.dev.ByteLanes()
	var pooled *Buffers
	for i := 0; i < 2; i++ {
		if _, err := e.Search(query, opt); err != nil {
			t.Fatal(err)
		}
		free := e.pool.free[lanes]
		if len(free) != 1 || (pooled != nil && free[0] != pooled) {
			t.Fatalf("search %d: pool holds %d buffers of %d lanes, kept scratch reused: %v",
				i, len(free), lanes, pooled == nil || free[0] == pooled)
		}
		pooled = free[0]
	}

	opt.Workers = 3
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Search(query, opt); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := len(e.pool.free[lanes]); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("pool holds %d buffers after concurrent searches, want 1..GOMAXPROCS", n)
	}
}
