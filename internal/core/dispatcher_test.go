package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"heterosw/internal/device"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

func xeonPhiPhi() []Backend {
	return []Backend{
		NewBackend("xeon0", device.Xeon(), 0),
		NewBackend("phi0", device.Phi(), 0),
		NewBackend("phi1", device.Phi(), 0),
	}
}

// A single-backend dispatcher must reproduce Engine.Search exactly —
// scores, hits and simulated time — under every distribution.
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
		for i := range want.Hits {
			if res.Hits[i].SeqIndex != want.Hits[i].SeqIndex || res.Hits[i].Score != want.Hits[i].Score {
				t.Fatalf("%v: hit %d differs", dist, i)
			}
		}
		if dist == DistStatic && res.SimSeconds != want.SimSeconds {
			t.Fatalf("static single backend SimSeconds %v != engine %v", res.SimSeconds, want.SimSeconds)
		}
	}
}

// A two-backend static dispatcher is the old SearchHetero: for every share
// the merged scores must match the single-device oracle exactly, and the
// per-backend accounting must mirror HeteroResult's.
func TestDispatcherStaticMatchesSearchHetero(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	db := randDB(rng, 100, 75, true)
	query := randProtein(rng, 60)
	want := oracleScores(db, query.Residues)

	for _, share := range []float64{0, 0.25, 0.55, 1} {
		het, err := SearchHetero(db, query, HeteroOptions{
			Search:   defaultSearchOptions(),
			MICShare: share,
		})
		if err != nil {
			t.Fatalf("share %v: %v", share, err)
		}
		disp, err := NewDispatcher(db, []Backend{
			NewBackend("phi", device.Phi(), 0),
			NewBackend("xeon", device.Xeon(), 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := disp.Search(query, DispatchOptions{
			Search: defaultSearchOptions(),
			Dist:   DistStatic,
			Shares: []float64{share, 1 - share},
		})
		if err != nil {
			t.Fatalf("share %v: %v", share, err)
		}
		for i := range want {
			if int(res.Scores[i]) != want[i] {
				t.Fatalf("share %v: seq %d score %d, want oracle %d", share, i, res.Scores[i], want[i])
			}
			if res.Scores[i] != het.Scores[i] {
				t.Fatalf("share %v: seq %d dispatcher %d != SearchHetero %d", share, i, res.Scores[i], het.Scores[i])
			}
		}
		if res.PerBackend[0].SimSeconds != het.MICSeconds || res.PerBackend[1].SimSeconds != het.CPUSeconds {
			t.Fatalf("share %v: per-backend seconds diverge from HeteroResult", share)
		}
		if res.PerBackend[0].Share != het.MICShare || res.PerBackend[1].Share != het.CPUShare {
			t.Fatalf("share %v: realised shares diverge from HeteroResult", share)
		}
		if res.SimSeconds != math.Max(het.CPUSeconds, het.MICSeconds) {
			t.Fatalf("share %v: SimSeconds %v != max of device times", share, res.SimSeconds)
		}
	}
}

// Three heterogeneous backends under every distribution still produce the
// exact single-device scores: distribution strategy must never change
// results, only timing.
func TestDispatcherThreeBackendsScores(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	db := randDB(rng, 120, 90, true)
	query := randProtein(rng, 55)
	want := oracleScores(db, query.Residues)
	disp, err := NewDispatcher(db, xeonPhiPhi())
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
		var share float64
		for _, st := range res.PerBackend {
			share += st.Share
		}
		if share < 0.999 || share > 1.001 {
			t.Fatalf("%v: backend shares sum to %v", dist, share)
		}
	}
}

// SearchBatch must agree with query-at-a-time Search: same scores, same
// simulated times, with the shard split and engines shared by the batch.
func TestDispatcherBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	db := randDB(rng, 80, 70, true)
	queries := []*sequence.Sequence{
		randProtein(rng, 40),
		randProtein(rng, 90),
		randProtein(rng, 140),
	}
	disp, err := NewDispatcher(db, xeonPhiPhi())
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []Distribution{DistStatic, DistDynamic} {
		opt := DispatchOptions{Search: defaultSearchOptions(), Dist: dist}
		if dist == DistStatic {
			// Pin shares so the batch's mean-length auto split cannot
			// diverge from the per-query one.
			opt.Shares = []float64{0.3, 0.35, 0.35}
		}
		batch, err := disp.SearchBatch(queries, opt)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("%v: %d results for %d queries", dist, len(batch), len(queries))
		}
		for qi, q := range queries {
			single, err := disp.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range single.Scores {
				if batch[qi].Scores[i] != single.Scores[i] {
					t.Fatalf("%v: query %d seq %d: batch %d != single %d",
						dist, qi, i, batch[qi].Scores[i], single.Scores[i])
				}
			}
			if batch[qi].SimSeconds != single.SimSeconds {
				t.Fatalf("%v: query %d SimSeconds %v != %v", dist, qi, batch[qi].SimSeconds, single.SimSeconds)
			}
		}
	}
	if res, err := disp.SearchBatch(nil, DispatchOptions{Search: defaultSearchOptions()}); err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
}

// The acceptance criterion: with >=3 simulated backends the dynamic chunk
// queue's predicted makespan must not exceed the best static split found
// over a share grid that includes the model-balanced (auto) shares.
func TestDispatcherDynamicBeatsBestStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	lengths := make([]int, 6000)
	for i := range lengths {
		lengths[i] = 80 + rng.Intn(500)
	}
	db := lengthsDB(rng, lengths)
	disp, err := NewDispatcher(db, xeonPhiPhi())
	if err != nil {
		t.Fatal(err)
	}
	opt := DispatchOptions{Search: defaultSearchOptions()}
	queryLen := 500

	best := math.Inf(1)
	var bestShares []float64
	try := func(shares []float64) {
		o := opt
		o.Dist = DistStatic
		o.Shares = shares
		p, err := disp.Plan(queryLen, o)
		if err != nil {
			t.Fatalf("static %v: %v", shares, err)
		}
		if p.Makespan < best {
			best = p.Makespan
			bestShares = shares
		}
	}
	try(nil)                      // model-balanced auto shares
	for ai := 0; ai <= 12; ai++ { // xeon share 0..0.60 in 0.05 steps
		for bi := 0; ai+bi <= 20; bi++ {
			a, b := float64(ai)/20, float64(bi)/20
			c := 1 - a - b
			if c < 0 {
				c = 0
			}
			try([]float64{a, b, c})
		}
	}

	for _, dist := range []Distribution{DistDynamic, DistGuided} {
		o := opt
		o.Dist = dist
		p, err := disp.Plan(queryLen, o)
		if err != nil {
			t.Fatal(err)
		}
		if p.Makespan > best {
			t.Fatalf("%v makespan %.6fs exceeds best static %.6fs (shares %v)",
				dist, p.Makespan, best, bestShares)
		}
	}
}

// lengthsDB materialises a database with the given sequence lengths using
// arbitrary residues: the cost models consume only shape information, and
// score correctness is covered by the equivalence tests on smaller inputs.
func lengthsDB(rng *rand.Rand, lengths []int) *seqdb.Database {
	seqs := make([]*sequence.Sequence, len(lengths))
	for i, l := range lengths {
		seqs[i] = randProtein(rng, l)
	}
	return seqdb.New(seqs, true)
}

func TestDispatcherErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	db := randDB(rng, 10, 30, true)
	if _, err := NewDispatcher(nil, xeonPhiPhi()); err == nil {
		t.Error("nil database accepted")
	}
	if _, err := NewDispatcher(db, nil); err == nil {
		t.Error("empty roster accepted")
	}
	if _, err := NewDispatcher(db, []Backend{nil}); err == nil {
		t.Error("nil backend accepted")
	}
	disp, err := NewDispatcher(db, xeonPhiPhi())
	if err != nil {
		t.Fatal(err)
	}
	q := randProtein(rng, 20)
	if _, err := disp.Search(q, DispatchOptions{Search: defaultSearchOptions(), Shares: []float64{0.5, 0.5}}); err == nil {
		t.Error("share/backend count mismatch accepted")
	}
	if _, err := disp.Search(q, DispatchOptions{Search: defaultSearchOptions(), Shares: []float64{-1, 1, 1}}); err == nil {
		t.Error("negative share accepted")
	}
	if _, err := disp.Search(q, DispatchOptions{Search: defaultSearchOptions(), Shares: []float64{0, 0, 0}}); err == nil {
		t.Error("all-zero shares accepted")
	}
	if _, err := disp.Search(nil, DispatchOptions{Search: defaultSearchOptions()}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := disp.Search(q, DispatchOptions{Search: defaultSearchOptions(), Dist: Distribution(9)}); err == nil {
		t.Error("unknown distribution accepted")
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

func TestOptimalSharesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	lengths := make([]int, 2000)
	for i := range lengths {
		lengths[i] = 60 + rng.Intn(400)
	}
	shares := OptimalShares(lengths, 300, defaultSearchOptions(), xeonPhiPhi())
	var sum float64
	for i, s := range shares {
		if s <= 0 || s >= 1 {
			t.Fatalf("share %d = %v outside (0,1)", i, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// The two identical Phi backends must receive identical shares.
	if math.Abs(shares[1]-shares[2]) > 1e-9 {
		t.Fatalf("identical devices got different shares: %v", shares)
	}
	// Degenerate inputs fall back to equal shares.
	eq := OptimalShares(nil, 300, defaultSearchOptions(), xeonPhiPhi())
	for _, s := range eq {
		if math.Abs(s-1.0/3) > 1e-9 {
			t.Fatalf("empty-database shares %v, want equal", eq)
		}
	}
}

// Totals must accumulate functional per-backend work across concurrent
// batches, and SearchBatchContext must stop at a query boundary once its
// context is cancelled.
func TestDispatcherTotalsAcrossConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	db := randDB(rng, 120, 70, true)
	queries := []*sequence.Sequence{
		randProtein(rng, 50), randProtein(rng, 60), randProtein(rng, 70),
	}
	for _, dist := range []Distribution{DistStatic, DistDynamic} {
		disp, err := NewDispatcher(db, xeonPhiPhi())
		if err != nil {
			t.Fatal(err)
		}
		opt := DispatchOptions{Search: defaultSearchOptions(), Dist: dist}
		const batches = 4
		errc := make(chan error, batches)
		for g := 0; g < batches; g++ {
			go func() {
				_, err := disp.SearchBatch(queries, opt)
				errc <- err
			}()
		}
		for g := 0; g < batches; g++ {
			if err := <-errc; err != nil {
				t.Fatalf("%v: %v", dist, err)
			}
		}
		nq, per := disp.Totals()
		if want := int64(batches * len(queries)); nq != want {
			t.Fatalf("%v: %d queries recorded, want %d", dist, nq, want)
		}
		if len(per) != 3 {
			t.Fatalf("%v: %d backend totals", dist, len(per))
		}
		var residues, grants int64
		for i, bt := range per {
			if bt.Name == "" {
				t.Fatalf("%v: backend %d unnamed", dist, i)
			}
			residues += bt.Residues
			grants += bt.Grants
			if bt.Grants > 0 && bt.SimSeconds <= 0 {
				t.Fatalf("%v: backend %s has %d grants but no sim time", dist, bt.Name, bt.Grants)
			}
		}
		if want := db.Residues() * int64(batches*len(queries)); residues != want {
			t.Fatalf("%v: %d residues recorded, want %d", dist, residues, want)
		}
		if grants < int64(batches*len(queries)) {
			t.Fatalf("%v: only %d grants recorded", dist, grants)
		}
	}
}

func TestSearchBatchContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	db := randDB(rng, 60, 60, true)
	disp, err := NewDispatcher(db, xeonPhiPhi())
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*sequence.Sequence, 8)
	for i := range queries {
		queries[i] = randProtein(rng, 40)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: not even the first query may run
	if _, err := disp.SearchBatchContext(ctx, queries, DispatchOptions{Search: defaultSearchOptions()}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if nq, _ := disp.Totals(); nq != 0 {
		t.Fatalf("%d queries ran under a cancelled context", nq)
	}
	// A live context still completes the batch.
	res, err := disp.SearchBatchContext(context.Background(), queries, DispatchOptions{Search: defaultSearchOptions()})
	if err != nil || len(res) != len(queries) {
		t.Fatalf("live context: %v, %d results", err, len(res))
	}
}

// profileSpy is an EngineBackend that records the shared profile handle of
// every chunk search it is given.
type profileSpy struct {
	*EngineBackend
	mu   sync.Mutex
	seen []*sharedProfile
}

func (b *profileSpy) Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt SearchOptions) (*Result, error) {
	b.mu.Lock()
	b.seen = append(b.seen, opt.profile)
	b.mu.Unlock()
	return b.EngineBackend.Search(ctx, db, query, opt)
}

// All chunk searches of one query, on every backend and under every
// distribution, share one profile build; the next query gets its own.
func TestDispatcherBuildsQueryProfileOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	db := randDB(rng, 300, 120, true)
	spies := []*profileSpy{
		{EngineBackend: NewBackend("xeon0", device.Xeon(), 0)},
		{EngineBackend: NewBackend("phi0", device.Phi(), 0)},
	}
	disp, err := NewDispatcher(db, []Backend{spies[0], spies[1]})
	if err != nil {
		t.Fatal(err)
	}
	var last *sharedProfile
	for _, dist := range []Distribution{DistDynamic, DistStatic} {
		for q := 0; q < 2; q++ {
			query := randProtein(rng, 60)
			if _, err := disp.Search(query, DispatchOptions{Search: defaultSearchOptions(), Dist: dist}); err != nil {
				t.Fatal(err)
			}
			var shared *sharedProfile
			searches := 0
			for _, spy := range spies {
				for _, p := range spy.seen {
					if p == nil || (shared != nil && p != shared) {
						t.Fatalf("%v: chunk searches of one query got profile handles %p and %p", dist, shared, p)
					}
					shared = p
					searches++
				}
				spy.seen = nil
			}
			if searches < 2 || shared == last {
				t.Fatalf("%v: %d chunk searches, handle %p after %p", dist, searches, shared, last)
			}
			if shared.qp == nil || &shared.qp.Seq[0] != &query.Residues[0] {
				t.Fatalf("%v: the shared profile was not built from the query", dist)
			}
			last = shared
		}
	}
}
