package core

import (
	"math/rand"
	"testing"

	"heterosw/internal/device"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

func testEngine(t *testing.T, db *seqdb.Database) *Engine {
	t.Helper()
	e, err := NewEngine(db, device.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// loneSearch runs one search of query through a dispatcher whose one
// backend searches the whole of db, the path a local cluster runs.
func loneSearch(t *testing.T, db *seqdb.Database, query *sequence.Sequence, opt SearchOptions) *Result {
	t.Helper()
	disp, err := NewDispatcher(db, []Backend{NewBackend("solo", device.Xeon(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := disp.Search(query, DispatchOptions{Search: opt})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func defaultSearchOptions() SearchOptions {
	return SearchOptions{
		Params:   Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
		Schedule: sched.Dynamic,
	}
}

func TestSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	db := randDB(rng, 60, 80, true)
	query := randProtein(rng, 50)
	want := oracleScores(db, query.Residues)
	e := testEngine(t, db)
	for _, v := range Variants() {
		opt := defaultSearchOptions()
		opt.Variant = v
		res, err := e.Search(query, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if int(res.Scores[i]) != want[i] {
				t.Fatalf("%v: seq %d score %d, want %d", v, i, res.Scores[i], want[i])
			}
		}
	}
}

func TestSearchHitsSortedAndSelfHitFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	db := randDB(rng, 40, 60, true)
	// Plant the query itself: it must be the top hit.
	query := randProtein(rng, 55)
	planted := *query
	planted.ID = "PLANTED"
	seqs := make([]*sequence.Sequence, 0, db.Len()+1)
	for i := 0; i < db.Len(); i++ {
		seqs = append(seqs, db.Seq(i))
	}
	seqs = append(seqs, &planted)
	db2 := seqdb.New(seqs, true)
	res := loneSearch(t, db2, query, defaultSearchOptions())
	if res.Hits[0].ID != "PLANTED" {
		t.Fatalf("top hit %q score %d, want PLANTED", res.Hits[0].ID, res.Hits[0].Score)
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i].Score > res.Hits[i-1].Score {
			t.Fatal("hits not sorted descending")
		}
	}
}

func TestSearchTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	db := randDB(rng, 30, 40, true)
	opt := defaultSearchOptions()
	opt.TopK = 5
	res := loneSearch(t, db, randProtein(rng, 30), opt)
	if len(res.Hits) != 5 {
		t.Fatalf("TopK gave %d hits", len(res.Hits))
	}
	if len(res.Scores) != db.Len() {
		t.Fatalf("Scores truncated to %d", len(res.Scores))
	}
}

func TestSearchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	db := randDB(rng, 5, 20, true)
	e := testEngine(t, db)
	if _, err := e.Search(nil, defaultSearchOptions()); err == nil {
		t.Error("nil query accepted")
	}
	opt := defaultSearchOptions()
	opt.GapOpen = -3
	if _, err := e.Search(randProtein(rng, 5), opt); err == nil {
		t.Error("negative gap accepted")
	}
	if _, err := NewEngine(nil, device.Xeon()); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := NewEngine(db, nil); err == nil {
		t.Error("nil device accepted")
	}
}

// A search packs the database once, at its model's byte-lane width with the
// default long-subject threshold, whatever planner label the variant
// carries: the engine caches exactly that one partition.
func TestSearchCachesOnePartitionAtByteLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	db := randDB(rng, 70, 60, true)
	query := randProtein(rng, 30)
	for _, dev := range []*device.Model{device.Xeon(), device.Phi()} {
		e, err := NewEngine(db, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{IntrinsicSP, NoVecQP} {
			opt := defaultSearchOptions()
			opt.Variant = v
			if _, err := e.Search(query, opt); err != nil {
				t.Fatal(err)
			}
		}
		e.mu.Lock()
		keys := make([]partKey, 0, len(e.parts))
		for k := range e.parts {
			keys = append(keys, k)
		}
		e.mu.Unlock()
		want := partKey{lanes: dev.ByteLanes(), longThreshold: DefaultLongSeqThreshold}
		if len(keys) != 1 || keys[0] != want {
			t.Fatalf("%s: cached partitions %+v, want only %+v", dev.Short, keys, want)
		}
	}
}
