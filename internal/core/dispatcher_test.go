package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"heterosw/internal/device"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// threeBackends is a local roster whose engines pack three lane widths
// between them (16/32 and 32/64 word/byte lanes).
func threeBackends() []Backend {
	return []Backend{
		NewBackend("xeon0", device.Xeon(), 0),
		NewBackend("phi0", device.Phi(), 0),
		NewBackend("phi1", device.Phi(), 0),
	}
}

// A single-backend dispatcher must reproduce Engine.Search exactly —
// its scores, and the hits they sort into — whatever distribution its
// options name.
func TestDispatcherSingleBackendMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	db := randDB(rng, 90, 80, true)
	query := randProtein(rng, 70)
	eng := testEngine(t, db)
	want, err := eng.Search(query, defaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	disp, err := NewDispatcher(db, []Backend{NewBackend("solo", device.Xeon(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []Distribution{DistStatic, DistDynamic, DistGuided} {
		res, err := disp.Search(query, DispatchOptions{Search: defaultSearchOptions(), Dist: dist})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		for i := range want.Scores {
			if res.Scores[i] != want.Scores[i] {
				t.Fatalf("%v: score %d: %d != %d", dist, i, res.Scores[i], want.Scores[i])
			}
		}
		wantHits := stableSortHits(db, want.Scores, 0)
		for i := range wantHits {
			if res.Hits[i].SeqIndex != wantHits[i].SeqIndex || res.Hits[i].Score != wantHits[i].Score {
				t.Fatalf("%v: hit %d differs", dist, i)
			}
		}
	}
}

// Three backends of different lane widths still produce the exact
// single-device scores, whatever distribution the options name.
func TestDispatcherThreeBackendsScores(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	db := randDB(rng, 120, 90, true)
	query := randProtein(rng, 55)
	want := oracleScores(db, query.Residues)
	disp, err := NewDispatcher(db, threeBackends())
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []Distribution{DistStatic, DistDynamic, DistGuided} {
		res, err := disp.Search(query, DispatchOptions{Search: defaultSearchOptions(), Dist: dist})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		for i := range want {
			if int(res.Scores[i]) != want[i] {
				t.Fatalf("%v: seq %d score %d, want %d", dist, i, res.Scores[i], want[i])
			}
		}
		if res.Stats.Cells != int64(query.Len())*db.Residues() {
			t.Fatalf("%v: cells %d, want %d", dist, res.Stats.Cells, int64(query.Len())*db.Residues())
		}
	}
}

// A batch of queries run one by one through SearchContext, each with its
// own hit-list bound, must agree with query-at-a-time Search: the same
// scores (a bounded search merges its shards' answers, so it carries the
// histogram of those scores instead), the bound's prefix of Search's hit
// list, and no hit list for a negative bound.
func TestDispatcherBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	db := randDB(rng, 80, 70, true)
	queries := []*sequence.Sequence{
		randProtein(rng, 40),
		randProtein(rng, 90),
		randProtein(rng, 140),
	}
	bounds := []int{-1, 0, 5}
	disp, err := NewDispatcher(db, threeBackends())
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []Distribution{DistStatic, DistDynamic} {
		opt := DispatchOptions{Search: defaultSearchOptions(), Dist: dist}
		for qi, q := range queries {
			got, err := disp.SearchContext(context.Background(), q, opt, bounds[qi])
			if err != nil {
				t.Fatalf("%v: %v", dist, err)
			}
			single, err := disp.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if k := bounds[qi]; k > 0 {
				if want := histogram(single.Scores); !slices.Equal(got.Hist, want) {
					t.Fatalf("%v: query %d bound %d: histogram %v, want %v", dist, qi, k, got.Hist, want)
				}
			} else if len(got.Scores) != len(single.Scores) {
				t.Fatalf("%v: query %d bound %d: %d scores, want %d", dist, qi, k, len(got.Scores), len(single.Scores))
			}
			for i := range got.Scores {
				if got.Scores[i] != single.Scores[i] {
					t.Fatalf("%v: query %d seq %d: SearchContext %d != Search %d",
						dist, qi, i, got.Scores[i], single.Scores[i])
				}
			}
			want := single.Hits
			switch k := bounds[qi]; {
			case k < 0:
				want = nil
			case k > 0:
				want = want[:k]
			}
			if !reflect.DeepEqual(got.Hits, want) {
				t.Fatalf("%v: query %d bound %d: hits %v, want %v", dist, qi, bounds[qi], got.Hits, want)
			}
		}
	}
}

// A lone backend and a sharded roster select the same hits from the same
// scores. The database repeats three subjects, so it holds few distinct
// scores and every bound cuts inside a run of ties, and it plants a copy of
// the query, the one top hit. At every bound the two dispatchers must
// return the same hits and the same histogram, the count of the lone
// backend's scores.
func TestDispatcherLoneMatchesShardedOverTies(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	query := randProtein(rng, 50)
	pool := []*sequence.Sequence{randProtein(rng, 30), randProtein(rng, 60), randProtein(rng, 90)}
	seqs := make([]*sequence.Sequence, 0, 76)
	for i := range 75 {
		seqs = append(seqs, &sequence.Sequence{ID: fmt.Sprintf("t%d", i), Residues: pool[i%len(pool)].Residues})
	}
	seqs = slices.Insert(seqs, 40, &sequence.Sequence{ID: "PLANTED", Residues: query.Residues})
	db := seqdb.New(seqs, true)
	lone, err := NewDispatcher(db, []Backend{NewBackend("solo", device.Xeon(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewDispatcher(db, threeBackends())
	if err != nil {
		t.Fatal(err)
	}
	opt := DispatchOptions{Search: defaultSearchOptions()}
	n := db.Len()
	for _, k := range []int{0, 1, 5, n, n + 1} {
		l, err := lone.SearchContext(context.Background(), query, opt, k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sharded.SearchContext(context.Background(), query, opt, k)
		if err != nil {
			t.Fatal(err)
		}
		if l.Hits[0].ID != "PLANTED" {
			t.Fatalf("k=%d: top hit %s, want PLANTED", k, l.Hits[0].ID)
		}
		if !reflect.DeepEqual(l.Hits, s.Hits) {
			t.Fatalf("k=%d: lone hits %v, sharded %v", k, l.Hits, s.Hits)
		}
		if want := histogram(l.Scores); !slices.Equal(s.Hist, want) {
			t.Fatalf("k=%d: sharded histogram %v, want %v", k, s.Hist, want)
		}
		if !slices.Equal(l.Hist, s.Hist) {
			t.Fatalf("k=%d: lone histogram %v, sharded %v", k, l.Hist, s.Hist)
		}
	}
}

func TestDispatcherErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	db := randDB(rng, 10, 30, true)
	if _, err := NewDispatcher(nil, threeBackends()); err == nil {
		t.Error("nil database accepted")
	}
	if _, err := NewDispatcher(db, nil); err == nil {
		t.Error("empty roster accepted")
	}
	if _, err := NewDispatcher(db, []Backend{nil}); err == nil {
		t.Error("nil backend accepted")
	}
	disp, err := NewDispatcher(db, threeBackends())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disp.Search(nil, DispatchOptions{Search: defaultSearchOptions()}); err == nil {
		t.Error("nil query accepted")
	}
	opt := defaultSearchOptions()
	opt.GapOpen = -3
	if _, err := disp.Search(randProtein(rng, 20), DispatchOptions{Search: opt}); err == nil {
		t.Error("negative gap accepted")
	}
}

// Totals must accumulate per-backend work across concurrent batches of
// queries, each batch run one query after another through SearchContext.
func TestDispatcherTotalsAcrossConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	db := randDB(rng, 120, 70, true)
	queries := []*sequence.Sequence{
		randProtein(rng, 50), randProtein(rng, 60), randProtein(rng, 70),
	}
	for _, dist := range []Distribution{DistStatic, DistDynamic} {
		disp, err := NewDispatcher(db, threeBackends())
		if err != nil {
			t.Fatal(err)
		}
		opt := DispatchOptions{Search: defaultSearchOptions(), Dist: dist}
		const batches = 4
		errc := make(chan error, batches)
		for g := 0; g < batches; g++ {
			go func() {
				for _, q := range queries {
					if _, err := disp.SearchContext(context.Background(), q, opt, 0); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
		}
		for g := 0; g < batches; g++ {
			if err := <-errc; err != nil {
				t.Fatalf("%v: %v", dist, err)
			}
		}
		tot := disp.Totals()
		nq, per := tot.Queries, tot.Backends
		if want := int64(batches * len(queries)); nq != want {
			t.Fatalf("%v: %d queries recorded, want %d", dist, nq, want)
		}
		if len(per) != 3 {
			t.Fatalf("%v: %d backend totals", dist, len(per))
		}
		var residues, cells int64
		for i, bt := range per {
			if bt.Name == "" {
				t.Fatalf("%v: backend %d unnamed", dist, i)
			}
			residues += bt.Residues
			cells += bt.Cells
			if want := int64(batches * len(queries)); bt.Grants != want {
				t.Fatalf("%v: backend %s ran %d shard searches, want %d", dist, bt.Name, bt.Grants, want)
			}
			if bt.WallSeconds <= 0 {
				t.Fatalf("%v: backend %s has %d grants but no wall time", dist, bt.Name, bt.Grants)
			}
		}
		if want := db.Residues() * int64(batches*len(queries)); residues != want {
			t.Fatalf("%v: %d residues recorded, want %d", dist, residues, want)
		}
		var qlen int64
		for _, q := range queries {
			qlen += int64(q.Len())
		}
		if want := db.Residues() * qlen * batches; cells != want {
			t.Fatalf("%v: %d cells recorded, want %d", dist, cells, want)
		}
	}
}

// SearchContext under a cancelled context must run nothing and count
// nothing; a live context still searches.
func TestSearchContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	db := randDB(rng, 60, 60, true)
	disp, err := NewDispatcher(db, threeBackends())
	if err != nil {
		t.Fatal(err)
	}
	query := randProtein(rng, 40)
	opt := DispatchOptions{Search: defaultSearchOptions()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := disp.SearchContext(ctx, query, opt, 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if nq := disp.Totals().Queries; nq != 0 {
		t.Fatalf("%d queries ran under a cancelled context", nq)
	}
	res, err := disp.SearchContext(context.Background(), query, opt, 0)
	if err != nil || len(res.Scores) != db.Len() {
		t.Fatalf("live context: %v", err)
	}
	if nq := disp.Totals().Queries; nq != 1 {
		t.Fatalf("%d queries recorded, want 1", nq)
	}
}

// A backend builds one engine over the shard it is handed and keeps it —
// lane packings included — for every later search of that shard.
func TestBackendReusesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db, other := randDB(rng, 40, 60, true), randDB(rng, 40, 60, true)
	b := NewBackend("host", device.Xeon(), 0)
	query := randProtein(rng, 18)
	search := func(db *seqdb.Database) *Engine {
		t.Helper()
		if _, err := b.Search(context.Background(), db, query, defaultSearchOptions()); err != nil {
			t.Fatal(err)
		}
		return b.eng
	}
	first := search(db)
	if again := search(db); again != first || len(first.parts) != 1 {
		t.Fatalf("second search of one shard: engine reused %v, %d cached partitions (want 1)", again == first, len(first.parts))
	}
	if replaced := search(other); replaced == first || replaced.db != other {
		t.Fatal("a different database did not get its own engine")
	}
}

func TestParseDistribution(t *testing.T) {
	for _, d := range []Distribution{DistStatic, DistDynamic, DistGuided} {
		got, err := ParseDistribution(d.String())
		if err != nil || got != d {
			t.Fatalf("round trip %v: %v %v", d, got, err)
		}
	}
	if _, err := ParseDistribution("adaptive"); err == nil {
		t.Error("bogus distribution accepted")
	}
}
