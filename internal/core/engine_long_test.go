package core

import (
	"math/rand"
	"reflect"
	"testing"

	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
)

// TestEngineRoutesLongSequences verifies the end-to-end path: a database
// containing a sequence beyond the threshold must produce oracle-correct
// scores, route exactly those subjects to the intra-task kernel, and count
// every residue's cells once.
func TestEngineRoutesLongSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	random := []*sequence.Sequence{
		randProtein(rng, 30),
		randProtein(rng, 3073), // just above DefaultLongSeqThreshold
		randProtein(rng, 100),
		randProtein(rng, 4000),
	}
	routeBothWays(t, random, randProtein(rng, 40), 3073+4000)

	// A periodic 3,300-residue subject against a 300-residue window of
	// itself scores far over a byte, so the 8-bit escalation counter tells
	// the two routes apart: the long path starts at 16 bits, while a byte
	// lane saturates and escalates once.
	long := make([]byte, 3300)
	for i := range long {
		long[i] = "ARNDCQEGHILKMFPSTWYV"[i%20]
	}
	periodic := []*sequence.Sequence{
		sequence.FromString("long", string(long)),
		sequence.FromString("short", "MKWVLAARND"),
	}
	routed, unrouted := routeBothWays(t, periodic, sequence.FromString("q", string(long[100:400])), 3300)
	if routed.Stats.Overflows8 != 0 || unrouted.Stats.Overflows8 != 1 {
		t.Fatalf("Overflows8 routed %d, unrouted %d; want 0 and 1", routed.Stats.Overflows8, unrouted.Stats.Overflows8)
	}
}

// routeBothWays searches seqs with the default long-sequence routing, which
// must send exactly intraResidues subject residues down the intra-task
// kernel, and with routing disabled, which must reach the oracle's scores
// through the lane kernels alone (with heavy padding). Both searches count
// every database residue's cells once.
func routeBothWays(t *testing.T, seqs []*sequence.Sequence, query *sequence.Sequence, intraResidues int) (routed, unrouted *Result) {
	t.Helper()
	db := seqdb.New(seqs, true)
	want := oracleScores(db, query.Residues)
	e := testEngine(t, db)
	routed, err := e.Search(query, defaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if int(routed.Scores[i]) != want[i] {
			t.Fatalf("seq %d (len %d): score %d, want %d", i, seqs[i].Len(), routed.Scores[i], want[i])
		}
	}
	long := longRouted(t, e, DefaultLongSeqThreshold)
	routedResidues := 0
	for _, n := range long {
		if n <= DefaultLongSeqThreshold {
			t.Fatalf("a %d-residue subject routed to the intra-task kernel", n)
		}
		routedResidues += n
	}
	if routedResidues != intraResidues {
		t.Fatalf("intra-task kernel got subjects %v (%d residues), want %d residues", long, routedResidues, intraResidues)
	}
	wantCells := int64(query.Len()) * db.Residues()
	if routed.Stats.Cells != wantCells {
		t.Fatalf("Cells = %d, want %d", routed.Stats.Cells, wantCells)
	}

	opt := defaultSearchOptions()
	opt.LongSeqThreshold = -1
	unrouted, err = e.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if unrouted.Scores[i] != routed.Scores[i] {
			t.Fatalf("routing changed scores at %d: %d vs %d", i, unrouted.Scores[i], routed.Scores[i])
		}
	}
	if long := longRouted(t, e, 0); len(long) != 0 {
		t.Fatalf("routing disabled but subjects %v went to the intra-task kernel", long)
	}
	if unrouted.Stats.Cells != wantCells {
		t.Fatalf("unrouted Cells = %d, want %d", unrouted.Stats.Cells, wantCells)
	}
	return routed, unrouted
}

// longRouted returns the lengths of the subjects that the partition a
// search cached for a long-subject threshold (0: routing disabled) sends to
// the intra-task kernel. The partition must already be cached, at the
// engine's byte-lane width.
func longRouted(t *testing.T, e *Engine, threshold int) []int {
	t.Helper()
	e.mu.Lock()
	p, ok := e.parts[partKey{lanes: e.dev.ByteLanes(), longThreshold: threshold}]
	e.mu.Unlock()
	if !ok {
		t.Fatalf("no partition cached at %d byte lanes, threshold %d", e.dev.ByteLanes(), threshold)
	}
	lens := make([]int, len(p.long))
	for i, idx := range p.long {
		lens[i] = e.db.Seq(idx).Len()
	}
	return lens
}

func TestPartitionRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	seqs := []*sequence.Sequence{
		randProtein(rng, 10),
		randProtein(rng, 5000),
		randProtein(rng, 20),
	}
	db := seqdb.New(seqs, true)
	groups, long := db.Partition(4, 3072)
	if len(long) != 1 || long[0] != 1 {
		t.Fatalf("long = %v, want [1]", long)
	}
	total := int64(0)
	for _, g := range groups {
		total += g.Residues
		if g.Width > 3072 {
			t.Fatalf("group width %d above threshold", g.Width)
		}
	}
	if total != 30 {
		t.Fatalf("groups hold %d residues, want 30", total)
	}
}

// A byte-lane search runs long subjects through the 16-bit striped pass: the
// long subject here holds a copy of the query, whose score would saturate a
// byte lane, yet the 8-bit escalation counter stays untouched.
func TestEngineLongSubjectsPrec8(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	query := randProtein(rng, 60)
	long := randProtein(rng, 3500)
	copy(long.Residues[1700:], query.Residues)
	seqs := []*sequence.Sequence{randProtein(rng, 40), long, randProtein(rng, 80)}
	db := seqdb.New(seqs, true)
	want := oracleScores(db, query.Residues)
	if want[1] <= 255 {
		t.Fatalf("planted score %d fits a byte; the case pins nothing", want[1])
	}
	e := testEngine(t, db)

	res, err := e.Search(query, defaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if int(res.Scores[i]) != want[i] {
			t.Fatalf("seq %d score %d, want %d", i, res.Scores[i], want[i])
		}
	}
	if long := longRouted(t, e, DefaultLongSeqThreshold); !reflect.DeepEqual(long, []int{3500}) {
		t.Fatalf("intra-task kernel got subjects of lengths %v, want [3500]", long)
	}
	if want := int64(query.Len()) * db.Residues(); res.Stats.Cells != want {
		t.Fatalf("Cells = %d, want %d", res.Stats.Cells, want)
	}
	if res.Stats.Overflows8 != 0 || res.Stats.Overflows != 0 {
		t.Fatalf("escalations Overflows8=%d Overflows=%d, want none", res.Stats.Overflows8, res.Stats.Overflows)
	}
}

// Work items are numbered groups first, then long subjects; dispatch hands
// out the long ones first, heaviest first, then the groups widest first
// (ties in numbering order within each kind).
func TestDispatchOrderHeaviestFirst(t *testing.T) {
	got := dispatchOrder([]int{10, 20, 30}, []int{4000, 35213, 3100, 4000})
	if want := []int{4, 3, 6, 5, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatchOrder = %v, want %v", got, want)
	}
	if got := dispatchOrder([]int{10, 20}, nil); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("no long subjects: %v", got)
	}
	if got := dispatchOrder(nil, []int{5, 9}); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("no groups: %v", got)
	}
	if got := dispatchOrder([]int{40, 90, 40, 60}, nil); !reflect.DeepEqual(got, []int{1, 3, 0, 2}) {
		t.Fatalf("tied widths: %v", got)
	}

	// Through the engine, on an unsorted database: long subjects arrive in
	// caller order, not by length, and the groups are packed in caller
	// order, not by width.
	rng := rand.New(rand.NewSource(305))
	lens := []int{50, 3100, 20, 9000, 70, 4000, 30, 200, 10, 15, 120, 90, 5}
	seqs := make([]*sequence.Sequence, len(lens))
	for i, n := range lens {
		seqs[i] = randProtein(rng, n)
	}
	e := testEngine(t, seqdb.New(seqs, false))
	part := e.partitionFor(4, DefaultLongSeqThreshold)
	var dispatched []int
	for _, item := range part.order[:len(part.long)] {
		dispatched = append(dispatched, lens[part.long[item-len(part.groups)]])
	}
	if want := []int{9000, 4000, 3100}; !reflect.DeepEqual(dispatched, want) {
		t.Fatalf("long subjects dispatched as lengths %v, want %v", dispatched, want)
	}
	var packed, widths []int
	for _, g := range part.groups {
		packed = append(packed, g.Width)
	}
	for _, item := range part.order[len(part.long):] {
		widths = append(widths, part.groups[item].Width)
	}
	if want := []int{70, 200, 90}; !reflect.DeepEqual(packed, want) {
		t.Fatalf("groups packed with widths %v, want %v", packed, want)
	}
	if want := []int{200, 90, 70}; !reflect.DeepEqual(widths, want) {
		t.Fatalf("groups dispatched as widths %v, want %v", widths, want)
	}
}

// The dispatch order is invisible in the result: scores and Stats equal an
// in-order evaluation of the numbered items, for any worker count.
func TestEngineDispatchOrderKeepsResults(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	seqs := []*sequence.Sequence{randProtein(rng, 3300), randProtein(rng, 6000)}
	for i := 0; i < 40; i++ {
		seqs = append(seqs, randProtein(rng, rng.Intn(200)+1))
	}
	db := seqdb.New(seqs, true)
	query := randProtein(rng, 120)
	e := testEngine(t, db)
	opt := defaultSearchOptions()

	qp := profile.NewQuery(query.Residues, submat.BLOSUM62)
	lanes := e.dev.ByteLanes() // BLOSUM62 fits a byte: the search packs byte lanes
	groups, long := db.Partition(lanes, DefaultLongSeqThreshold)
	buf := NewBuffers(lanes)
	var want Stats
	for _, g := range groups {
		_, st := AlignGroup(qp, g, opt.Params, buf)
		want.Add(st)
	}
	for _, idx := range long {
		want.Add(Stats{Cells: int64(query.Len()) * int64(db.Seq(idx).Len())})
	}
	scores := oracleScores(db, query.Residues)

	for _, workers := range []int{1, 2, 5} {
		opt.Workers = workers
		res, err := e.Search(query, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scores {
			if int(res.Scores[i]) != scores[i] {
				t.Fatalf("workers=%d: seq %d score %d, want %d", workers, i, res.Scores[i], scores[i])
			}
		}
		if res.Stats != want {
			t.Fatalf("workers=%d: Stats %+v, want %+v", workers, res.Stats, want)
		}
	}
}
